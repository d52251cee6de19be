package mux

// Parallel per-group evaluation: the multicore shared scan.
//
// A sequential shared scan runs three stages on one goroutine: the
// scanner tokenizes, the merged automaton (internal/autom) decides
// per-group delivery, and every group's engine sessions consume their
// events. The first two stages are inherently serial — the matcher is a
// depth-tracking cursor over the token stream — but the third is not:
// event-routing groups share no sessions, no writers, and no routing
// state, so their engine work can proceed independently once the
// delivery decision for a token is known.
//
// SetParallel splits the scan accordingly. The scan goroutine (the
// producer) keeps tokenizing and running the Matcher and the shared
// validators, but instead of calling into sessions it copies each
// token's delivery masks and validation steps into a per-batch item and
// hands the item to a small pool of workers, each owning a disjoint set
// of routing groups. A worker walks its groups over the item's token
// range, delivering StartStep / EndStep / TextBytes / SkipStep to its
// groups' live members exactly as the
// sequential router would — same calls, same order per session — so
// outputs, per-query stats, and error isolation are byte-identical to
// the sequential path.
//
// Lifetime and backpressure. Tokens reference the sax.Batch's arena, so
// every item retains its batch (sax.Batch.Retain) once per worker
// message and each worker releases after processing. The scanner's
// batch ring will not reuse a retained batch's storage: when workers
// fall behind, the producer blocks inside sax's flushBatch — that is
// the backpressure edge, and it propagates all the way to a streaming
// ingest's Write. Worker queues are additionally bounded at
// parQueueDepth, though the batch ring's window is the binding limit in
// practice.
//
// Error isolation. A worker records a member failure with parFail:
// per-slot Result fields are owner-exclusive (each slot belongs to
// exactly one group, each group to exactly one worker), only the live
// count is shared and atomic. Siblings in other groups stream on
// undisturbed. When the last live slot dies, the producer notices at
// the next batch boundary and aborts the scan with errAllFailed, like
// the sequential router does at the failing token itself; the producer
// has usually routed a little further by then, so each item carries a
// checkpoint of the matcher's skip counters (SnapshotSkipped) and the
// retention ring keeps the last few items' masks alive — parFillSkipped
// reconstructs every group's SkippedEvents as of the true abort token,
// keeping even the all-failed corner byte-identical to sequential.
//
// Streaming. Mid-stream joins need the scan quiescent: at a sync point
// with pending subscriptions the producer flushes the partial item,
// sends a quiesce barrier through every worker queue, and only then
// runs activatePending — machine rebuild, Matcher.Extend, session
// replay all happen while no worker holds an item. Fresh groups are
// assigned to workers round-robin; subsequent items carry the widened
// masks (items record their own mask width). Per-batch output flushing
// (flushLive) moves onto the workers, each flushing its own members.
//
// Fallback. startParallel declines — leaving the Mux fully sequential —
// when routing is not automaton-based (all-fanout, grouped), when
// GOMAXPROCS is 1, or when a batch Run has fewer than two groups (a
// streaming mux parallelizes even with one group, pipelining scan
// against evaluation, since groups may join later). Tiny token batches
// with no items in flight are routed inline on the producer, skipping
// the dispatch overhead the sequential path never paid.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"flux/internal/engine"
	"flux/internal/sax"
)

const (
	// parInlineTokens is the inline fast path's threshold: a batch this
	// small is routed sequentially on the producer when no item is in
	// flight, instead of paying per-worker dispatch for a handful of
	// tokens.
	parInlineTokens = 64
	// parQueueDepth bounds each worker's item queue. The scanner's batch
	// ring already limits distinct batches in flight; the headroom above
	// that covers items split at streaming sync points.
	parQueueDepth = 8
	// parRetain is the producer's item-retention window (batch mode): the
	// masks and checkpoints of the last parRetain items stay readable so
	// an all-failed abort can reconstruct skip counters at the abort
	// token. It equals the largest possible producer overrun. Before
	// filling a batch the scanner waits until every worker has released
	// the batch BatchRingSize deliveries back, so when the producer last
	// found a live slot, every item older than the newest BatchRingSize
	// had been processed, and its failures counted; the abort token lies
	// in one of those newest items. Batch mode cuts at most one item per
	// batch, so the item the ring evicts is always fully processed.
	parRetain = sax.BatchRingSize
	// maxParWorkers caps the worker pool; beyond this, per-batch dispatch
	// overhead outweighs added parallelism for realistic group counts.
	maxParWorkers = 16
)

// parState is the Mux's parallel-pipeline state, non-nil only while a
// scan runs with SetParallel in effect.
type parState struct {
	workers []*parWorker
	// ring retains recently issued items for parFillSkipped (batch mode
	// only; nil for streams, which never abort on all-failed).
	ring    []*parItem
	ringPos int
	// outstanding counts worker messages not yet fully processed; zero
	// means every worker is idle and the producer may touch sessions
	// inline (the atomic ordering makes the workers' writes visible).
	outstanding atomic.Int64
	// failPos records, per slot, the global token index at which a
	// worker failed it (-1 = no worker failure). Batch mode only.
	failPos []int64
	// pos is the global token index the producer has routed through the
	// parallel path (items' startPos are cut from it).
	pos int64
	// exactAbort is set when errAllFailed was raised by inline routing:
	// the matcher stopped at the exact abort token, so the ordinary
	// fillSkipped counters are already correct.
	exactAbort bool
	// fixup is set by stopParallel when an all-failed batch scan needs
	// parFillSkipped's reconstruction instead of the matcher's counters.
	fixup bool
	// stopped makes stopParallel idempotent.
	stopped bool
}

// parWorker owns a disjoint set of routing groups and evaluates their
// members' sessions on its own goroutine.
type parWorker struct {
	groups []int // group indices owned by this worker
	ch     chan parMsg
	done   chan struct{}
	// steps holds the current message's unpacked validator steps,
	// indexed by (tok - lo)*nvals + validator.
	steps []engine.Step
}

// parMsg is one unit of worker input: a token range of an item, or a
// quiesce barrier.
type parMsg struct {
	it      *parItem
	lo, hi  int // token range [lo, hi) in batch coordinates
	quiesce *sync.WaitGroup
}

// parItem carries one batch's routing and validation decisions: for
// every token from firstTok on, the deliver mask and (for start tags)
// the skip-start mask the matcher produced, and for element tokens the
// shared validators' steps — all copied out, because matcher masks and
// validator steps are only valid until the next call.
type parItem struct {
	batch *sax.Batch
	// masks holds 2*words words per covered token: deliver first, then
	// skip-start (meaningful for StartElement tokens only). Indexed by
	// (tok - firstTok).
	masks []uint64
	// steps holds nvals validator steps per covered token (element
	// tokens only), indexed by (tok - firstTok)*nvals + validator; errs
	// holds the few steps' errors they refer to.
	steps    []parStep
	errs     []error
	nvals    int    // validator count when the item was created
	kinds    []byte // token kinds, for parFillSkipped's reconstruction
	words    int    // mask width when the item was created
	firstTok int    // first batch token this item covers
	startPos int64  // global token index of firstTok
	// skipAt is the matcher's per-group skip-counter snapshot taken
	// before routing the item's first token (batch mode only).
	skipAt []int64
	// refs counts unprocessed worker messages referencing the item;
	// retained items (batch mode) are recycled by the producer's
	// retention ring instead of by the last release.
	refs     atomic.Int32
	retained bool
}

// parStep is an engine.Step packed for the item: a token's step is
// copied per validator on the scan goroutine and kept while the item is
// in the retention ring, so it carries the states as int32, leaves the
// child production to a lookup by symbol on the worker, and keeps the
// error in the item's errs (err is its index plus one, 0 for none).
type parStep struct {
	sym, prev, next, err int32
}

// parItemPool recycles item shells (mask and kind buffers) across
// batches and scans.
var parItemPool = sync.Pool{New: func() any { return &parItem{} }}

// parStepsPool recycles the workers' unpacked-step buffers across scans.
var parStepsPool = sync.Pool{New: func() any { return new([]engine.Step) }}

// SetParallel requests parallel per-group evaluation for this Mux's
// scan: session work moves onto a worker pool (one worker per
// GOMAXPROCS core, at most maxParWorkers), fed per-batch by the scan
// goroutine, with results, stats, skip counts, and error isolation
// byte-identical to the sequential scan. It takes effect at Run or
// BeginStream and silently stays sequential when it cannot help:
// routing must be automaton-based (NewSelective or NewStreaming, not
// grouped or all-fanout), GOMAXPROCS must exceed 1, and a batch Run
// needs at least two routing groups. Callers must not share one writer
// between plans of different routing groups when parallel is on.
func (m *Mux) SetParallel(on bool) { m.parallel = on }

// ParallelActive reports whether the scan is (or, after Run/EndStream,
// was) actually using the parallel evaluation pipeline rather than
// having fallen back to sequential dispatch.
func (m *Mux) ParallelActive() bool { return m.par != nil }

// startParallel spins up the worker pool if the Mux qualifies; called
// after buildGroups and the sessions' Begin, before the first batch.
func (m *Mux) startParallel() {
	if !m.parallel || m.grouped || m.matcher == nil {
		return
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	if m.stream == nil && len(m.groups) < 2 {
		return
	}
	nw := runtime.GOMAXPROCS(0)
	if nw > maxParWorkers {
		nw = maxParWorkers
	}
	if m.stream == nil && nw > len(m.groups) {
		nw = len(m.groups)
	}
	if nw < 1 {
		nw = 1
	}
	p := &parState{workers: make([]*parWorker, nw)}
	if m.stream == nil {
		p.ring = make([]*parItem, parRetain)
		p.failPos = make([]int64, len(m.sessions))
		for i := range p.failPos {
			p.failPos[i] = -1
		}
	}
	for wi := range p.workers {
		p.workers[wi] = &parWorker{
			ch:    make(chan parMsg, parQueueDepth),
			done:  make(chan struct{}),
			steps: *parStepsPool.Get().(*[]engine.Step),
		}
	}
	m.par = p
	for gi := range m.groups {
		m.parAddGroup(gi)
	}
	for _, w := range p.workers {
		go w.run(m)
	}
}

// parAddGroup assigns routing group gi to a worker (round-robin).
// Called at startParallel, and from activatePending for groups created
// mid-stream — always while the workers are quiescent, so the owning
// worker observes the assignment through its next message receive.
func (m *Mux) parAddGroup(gi int) {
	if m.par == nil {
		return
	}
	w := m.par.workers[gi%len(m.par.workers)]
	w.groups = append(w.groups, gi)
}

// stopParallel closes the worker queues and waits for every worker to
// drain — the completion barrier before Finish, EndStream, or failure
// collection touches the sessions on this goroutine. Idempotent; no-op
// when the scan never went parallel.
func (m *Mux) stopParallel() {
	p := m.par
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	for _, w := range p.workers {
		close(w.ch)
	}
	for _, w := range p.workers {
		<-w.done
		steps := w.steps[:0]
		w.steps = nil
		parStepsPool.Put(&steps)
	}
	p.fixup = m.stream == nil && len(m.sessions) > 0 &&
		m.nlive.Load() == 0 && !p.exactAbort
	if !p.fixup {
		p.recycleRing()
	}
}

// recycleRing returns the retained items to the pool once no skip-count
// reconstruction can read them: at stop, or after parFillSkipped.
func (p *parState) recycleRing() {
	for i, it := range p.ring {
		if it != nil {
			putParItem(it)
			p.ring[i] = nil
		}
	}
}

// parQuiesce drains the pipeline without stopping it: a barrier message
// flows through every worker queue, and the producer waits until all
// workers have reached it. On return every previously issued item is
// fully processed and the producer may mutate shared routing state.
func (m *Mux) parQuiesce() {
	var wg sync.WaitGroup
	wg.Add(len(m.par.workers))
	for _, w := range m.par.workers {
		w.ch <- parMsg{quiesce: &wg}
	}
	wg.Wait()
}

// parHandleBatch is HandleBatch under the parallel pipeline: the
// producer half of the scan. It runs the matcher over the batch,
// records each token's delivery masks in an item, and feeds the workers
// — splitting the item at streaming sync points, where activation needs
// a quiescent pipeline.
func (m *Mux) parHandleBatch(b *sax.Batch) error {
	p := m.par
	if m.stream == nil && m.nlive.Load() == 0 {
		// All queries failed in some earlier item; stop feeding. The
		// sequential router aborted at the failing token itself —
		// parFillSkipped squares the books.
		return errAllFailed
	}
	if len(b.Tokens) <= parInlineTokens && p.outstanding.Load() == 0 {
		// Tiny batch, idle pipeline: route inline like the sequential
		// scan — no dispatch overhead, and outstanding == 0 means the
		// workers' session writes are visible here.
		if m.nctx > 0 {
			m.pollCtxsNow()
		}
		err := m.routeBatch(b)
		p.pos += int64(len(b.Tokens))
		if err != nil {
			if err == errAllFailed {
				p.exactAbort = true
			}
			return err
		}
		if m.stream != nil {
			m.flushLive()
		}
		return nil
	}
	m.tab = b.Syms
	it := m.parNewItem(b, 0)
	lo := 0
	for i := range b.Tokens {
		if m.stream != nil && m.depth <= 1 && m.stream.npend.Load() > 0 {
			// Sync point with pending subscriptions: ship what this item
			// has, drain the pipeline, and admit the joiners; the rest of
			// the batch goes into a fresh item sized for the (possibly
			// wider) extended automaton.
			m.parFlushRange(it, lo, i)
			m.parRetire(it)
			m.parQuiesce()
			m.activatePending()
			it = m.parNewItem(b, i)
			lo = i
		}
		t := &b.Tokens[i]
		base := (i - it.firstTok) * 2 * it.words
		switch t.Kind {
		case sax.StartElement:
			m.depth++
			if m.stream != nil && m.depth == 1 {
				m.stream.rootName = t.Name
			}
			deliver, skip := m.matcher.Start(t.Name)
			copy(it.masks[base:], deliver)
			copy(it.masks[base+it.words:], skip)
			m.validateStart(t.Name, t.Sym)
			it.putSteps(m, i)
		case sax.EndElement:
			copy(it.masks[base:], m.matcher.End())
			m.validateEnd(t.Name)
			it.putSteps(m, i)
			m.depth--
			if m.stream != nil && m.depth == 0 {
				m.stream.rootClosed = true
			}
		case sax.SkipElement:
			copy(it.masks[base:], m.matcher.Skip())
			m.validateSkip(t.Name, t.Sym)
			it.putSteps(m, i)
		default:
			copy(it.masks[base:], m.matcher.Text())
		}
		it.kinds[i-it.firstTok] = byte(t.Kind)
		p.pos++
	}
	m.parFlushRange(it, lo, len(b.Tokens))
	m.parRetire(it)
	return nil
}

// parNewItem takes an item shell from the pool and sizes it for the
// batch tokens from firstTok on, at the automaton's current mask width.
func (m *Mux) parNewItem(b *sax.Batch, firstTok int) *parItem {
	it := parItemPool.Get().(*parItem)
	words := (m.machine.NumGroups() + 63) / 64
	n := len(b.Tokens) - firstTok
	need := n * 2 * words
	if cap(it.masks) < need {
		it.masks = make([]uint64, need)
	} else {
		it.masks = it.masks[:need]
	}
	if cap(it.kinds) < n {
		it.kinds = make([]byte, n)
	} else {
		it.kinds = it.kinds[:n]
	}
	nvals := len(m.vals)
	if cap(it.steps) < n*nvals {
		it.steps = make([]parStep, n*nvals)
	} else {
		it.steps = it.steps[:n*nvals]
	}
	clear(it.errs)
	it.errs = it.errs[:0]
	it.batch = b
	it.words = words
	it.nvals = nvals
	it.firstTok = firstTok
	it.startPos = m.par.pos
	it.retained = m.stream == nil
	it.refs.Store(0)
	if it.retained {
		it.skipAt = m.matcher.SnapshotSkipped(it.skipAt[:0])
	}
	return it
}

// putSteps packs the validators' steps for batch token tok into the
// item.
func (it *parItem) putSteps(m *Mux, tok int) {
	base := (tok - it.firstTok) * it.nvals
	for vi, st := range m.vsteps {
		ps := parStep{sym: st.Sym, prev: int32(st.Prev), next: int32(st.Next)}
		if st.Err != nil {
			it.errs = append(it.errs, st.Err)
			ps.err = int32(len(it.errs))
		}
		it.steps[base+vi] = ps
	}
}

// unpack expands the packed steps of the message's element tokens into
// the worker's steps, once per token for all the groups that read them.
// A start tag's step gets its child production back from the schema.
func (w *parWorker) unpack(m *Mux, msg parMsg) {
	it := msg.it
	n := (msg.hi - msg.lo) * it.nvals
	if cap(w.steps) < n {
		w.steps = make([]engine.Step, n)
	}
	w.steps = w.steps[:n]
	for ti := msg.lo; ti < msg.hi; ti++ {
		kind := it.batch.Tokens[ti].Kind
		if kind == sax.Text {
			continue
		}
		src := it.steps[(ti-it.firstTok)*it.nvals:][:it.nvals]
		dst := w.steps[(ti-msg.lo)*it.nvals:][:it.nvals]
		for vi, ps := range src {
			st := engine.Step{Sym: ps.sym, Prev: int(ps.prev), Next: int(ps.next)}
			if ps.err > 0 {
				st.Err = it.errs[ps.err-1]
			}
			if kind == sax.StartElement {
				st.Child = m.vals[vi].Schema().ProductionSym(ps.sym)
			}
			dst[vi] = st
		}
	}
}

// step returns the unpacked step of validator vi for batch token tok of
// the message, nil for vi < 0 (a group whose sessions validate
// themselves).
func (w *parWorker) step(msg parMsg, tok, vi int) *engine.Step {
	if vi < 0 {
		return nil
	}
	return &w.steps[(tok-msg.lo)*msg.it.nvals+vi]
}

// parFlushRange sends the item's [lo, hi) token range to every worker,
// retaining the underlying batch once per message so the scanner cannot
// recycle it while any worker still reads it.
func (m *Mux) parFlushRange(it *parItem, lo, hi int) {
	if lo >= hi {
		return
	}
	p := m.par
	it.refs.Add(int32(len(p.workers)))
	p.outstanding.Add(int64(len(p.workers)))
	for _, w := range p.workers {
		it.batch.Retain()
		w.ch <- parMsg{it: it, lo: lo, hi: hi}
	}
}

// parRetire files a fully issued item. Batch mode keeps it in the
// retention ring for parFillSkipped, recycling the item the ring evicts
// (whose workers are long done — the scanner's batch ring throttles the
// producer far inside the retention window; if an evicted item is
// somehow still referenced it is simply dropped to the GC). Streaming
// items are recycled by their last release instead.
func (m *Mux) parRetire(it *parItem) {
	if !it.retained {
		return
	}
	p := m.par
	if old := p.ring[p.ringPos]; old != nil && old.refs.Load() == 0 {
		putParItem(old)
	}
	p.ring[p.ringPos] = it
	p.ringPos = (p.ringPos + 1) % len(p.ring)
}

// putParItem drops an item's batch reference and returns the shell to
// the pool.
func putParItem(it *parItem) {
	it.batch = nil
	parItemPool.Put(it)
}

// run is the worker loop: process items, honor quiesce barriers, exit
// when the producer closes the queue.
func (w *parWorker) run(m *Mux) {
	defer close(w.done)
	for msg := range w.ch {
		if msg.quiesce != nil {
			msg.quiesce.Done()
			continue
		}
		m.parProcess(w, msg)
		m.parRelease(msg.it)
	}
}

// parRelease undoes one message's retention of its item and batch. The
// batch reference is saved before the item can be pooled: putParItem
// clears it.batch.
func (m *Mux) parRelease(it *parItem) {
	b := it.batch
	if it.refs.Add(-1) == 0 && !it.retained {
		putParItem(it)
	}
	b.Release()
	m.par.outstanding.Add(-1)
}

// parProcess evaluates one message for every group the worker owns:
// the worker-side half of routeBatch. Per group it polls member
// contexts once (the same batch granularity the sequential scan uses),
// then walks the token range delivering exactly what the masks say; in
// streaming mode it finishes by flushing its members' buffered output,
// the per-batch visibility point flushLive provided sequentially.
func (m *Mux) parProcess(w *parWorker, msg parMsg) {
	it := msg.it
	stride := 2 * it.words
	w.unpack(m, msg)
	for _, gi := range w.groups {
		if gi>>6 >= it.words {
			continue // group joined after this item was cut
		}
		g := m.groups[gi]
		wi, bit := gi>>6, uint64(1)<<(gi&63)
		live := 0
		for _, slot := range g.members {
			if !m.live[slot] {
				continue
			}
			if ctx := m.ctxs[slot]; ctx != nil {
				if err := ctx.Err(); err != nil {
					m.parFail(slot, err, it.startPos+int64(msg.lo-it.firstTok))
					continue
				}
			}
			live++
		}
		if live == 0 {
			continue
		}
		for ti := msg.lo; ti < msg.hi; ti++ {
			base := (ti-it.firstTok)*stride + wi
			deliver := it.masks[base]&bit != 0
			t := &it.batch.Tokens[ti]
			pos := it.startPos + int64(ti-it.firstTok)
			switch t.Kind {
			case sax.StartElement:
				if deliver {
					st := w.step(msg, ti, g.val)
					for _, slot := range g.members {
						if !m.live[slot] {
							continue
						}
						if err := m.sessions[slot].StartStep(t.Name, st); err != nil {
							m.parFail(slot, err, pos)
						}
					}
				} else if it.masks[base+it.words]&bit != 0 {
					st := w.step(msg, ti, g.val)
					for _, slot := range g.members {
						if !m.live[slot] {
							continue
						}
						if err := m.sessions[slot].SkipStep(t.Name, st); err != nil {
							m.parFail(slot, err, pos)
						}
					}
				}
			case sax.EndElement:
				if deliver {
					st := w.step(msg, ti, g.val)
					for _, slot := range g.members {
						if !m.live[slot] {
							continue
						}
						if err := m.sessions[slot].EndStep(t.Name, st); err != nil {
							m.parFail(slot, err, pos)
						}
					}
				}
			case sax.SkipElement:
				if deliver {
					st := w.step(msg, ti, g.val)
					for _, slot := range g.members {
						if !m.live[slot] {
							continue
						}
						if err := m.sessions[slot].SkipStep(t.Name, st); err != nil {
							m.parFail(slot, err, pos)
						}
					}
				}
			default:
				if deliver {
					for _, slot := range g.members {
						if !m.live[slot] {
							continue
						}
						if err := m.sessions[slot].TextBytes(t.Data); err != nil {
							m.parFail(slot, err, pos)
						}
					}
				}
			}
		}
	}
	if m.stream != nil {
		for _, gi := range w.groups {
			for _, slot := range m.groups[gi].members {
				if !m.live[slot] {
					continue
				}
				if err := m.sessions[slot].Flush(); err != nil {
					m.parFail(slot, err, it.startPos+int64(msg.hi-1-it.firstTok))
				}
			}
		}
	}
}

// parFail is fail for worker goroutines: slot state (Result, live flag,
// session) is owner-exclusive to the worker that routes the slot's
// group, so only the live count needs an atomic. The failure's global
// token position is recorded so an all-failed abort can locate the
// token where the sequential scan would have stopped.
func (m *Mux) parFail(slot int, err error, pos int64) {
	m.results[slot].Err = err
	m.results[slot].Stats = m.sessions[slot].Abort()
	m.live[slot] = false
	if fp := m.par.failPos; slot < len(fp) {
		fp[slot] = pos
	}
	m.nlive.Add(-1)
	if m.stream != nil && m.stream.onDetach != nil {
		m.stream.onDetach(slot, err)
	}
}

// parFillSkipped reconstructs every slot's SkippedEvents as of the
// token where the sequential scan would have aborted with errAllFailed
// — the last slot failure. The producer's matcher usually routed a few
// batches past that token before noticing the pipeline was dead, so its
// counters overshoot; the abort token's item carries a checkpoint of
// the counters at its first token (skipAt) and the masks to replay
// per-token increments up to the abort token exactly:
//
//	StartElement: +1 for groups neither delivered nor starting a skip
//	EndElement:   +1 for groups not delivered
//	Text:         +1 for groups not delivered (skipped or DropText)
//	SkipElement:  +1 for every group
//
// which is precisely the matcher's interval accounting unrolled.
func (m *Mux) parFillSkipped() {
	p := m.par
	abort := int64(-1)
	for _, fp := range p.failPos {
		if fp > abort {
			abort = fp
		}
	}
	var tgt *parItem
	for _, it := range p.ring {
		if it != nil && it.startPos <= abort && abort < it.startPos+int64(len(it.kinds)) {
			tgt = it
			break
		}
	}
	if tgt == nil {
		// Defensive: the abort token predates the retention window, which
		// the batch ring's throttling should make impossible. Fall back
		// to the matcher's end-of-routing counters.
		m.matcher.Flush()
		for i := range m.results {
			m.results[i].SkippedEvents = m.matcher.Skipped(m.slotGroup[i])
		}
		return
	}
	counts := append([]int64(nil), tgt.skipAt...)
	stride := 2 * tgt.words
	for j := 0; int64(j) <= abort-tgt.startPos; j++ {
		base := j * stride
		kind := sax.Kind(tgt.kinds[j])
		for g := range counts {
			wi, bit := g>>6, uint64(1)<<(g&63)
			switch kind {
			case sax.StartElement:
				if tgt.masks[base+wi]&bit == 0 && tgt.masks[base+tgt.words+wi]&bit == 0 {
					counts[g]++
				}
			case sax.SkipElement:
				counts[g]++
			default: // EndElement, Text
				if tgt.masks[base+wi]&bit == 0 {
					counts[g]++
				}
			}
		}
	}
	for i := range m.results {
		m.results[i].SkippedEvents = counts[m.slotGroup[i]]
	}
}
