// Package mux executes many compiled query plans over a single SAX pass
// of one input stream — a shared scan.
//
// The FluX engine already keeps per-query memory independent of input
// size; the multiplexer extends that discipline to concurrent workloads
// by amortizing the scan itself: N queries against the same document cost
// one tokenization and one read of the input, not N. Each registered plan
// runs in its own engine.Session, so per-query state, output, statistics,
// and failures stay fully isolated — a plan that errors mid-stream is
// detached from the event flow without disturbing its siblings.
//
// A multiplexer created with NewSelective additionally routes events by
// each plan's projected-path signature (engine.SigNode): plans with equal
// signatures form one event-routing group, and a subtree no path of a
// group's signature can match is delivered to that group as a single
// Session.SkipSubtree step instead of event by event. A wide batch of
// narrow queries then costs each query only the events its projection can
// match, not the whole document.
//
// Selective routing is evaluated by one merged path automaton per batch
// (internal/autom): the groups' signature tries are merged into a
// single trie with per-group accept bitsets, so each token updates one
// cursor and yields the whole batch's delivery decision as a mask —
// shared path prefixes cost one traversal no matter how many groups
// share them. NewSelectiveGrouped retains the older per-group trie walk
// (one cursor per group); both make identical routing decisions and it
// exists as a benchmarking and differential-testing baseline.
//
// The trade of selective routing: a plan no longer validates
// the interior of subtrees its query provably ignores (the parent content
// model still validates every skipped element's tag; element events at
// observed positions are always delivered, so validation there is
// unchanged). Character data at an observed tags-only position is
// delivered unless the DTD proves it irrelevant: at a mixed-content
// spine position text is always legal and never consumed, so it is
// withheld (engine.SigNode.DropText); at a non-mixed position stray
// text must still fail validation, so it flows. New preserves the
// deliver-everything behavior, including full per-plan DTD validation.
//
// A selective Mux validates each element event once per schema, not
// once per plan: one engine.Validator per schema that several plans
// share steps the Glushkov automata, and every session the event
// reaches — delivered or skip-stepped — adopts that step
// (engine.Session.StartStep). A validation error therefore fails
// exactly the sessions that receive the failing event, with the text
// each would have produced alone. A plan alone on its schema validates
// itself.
package mux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"

	"flux/internal/autom"
	"flux/internal/dtd"
	"flux/internal/engine"
	"flux/internal/sax"
)

// Result is the outcome of one plan in a shared scan.
type Result struct {
	// Stats are the per-query execution statistics; for a failed query
	// they cover the prefix of the stream processed before the failure.
	Stats engine.Stats
	// Err is the query's own failure, nil on success. An input-level
	// failure (malformed XML, read error) is recorded on every query that
	// was still live when it happened and also returned from Run.
	Err error
	// SkippedEvents counts the scan events selective fan-out withheld
	// from this plan (the interior of subtrees its signature cannot
	// match). Under scanner-level pruning (the batched Run), a subtree
	// every group skips is consumed raw and arrives as one SkipElement
	// token, advancing this counter by one instead of by the subtree's
	// true event count — the value is a lower bound on the events an
	// all-fanout scan would have delivered, not an exact count. Always 0
	// for a Mux created with New.
	SkippedEvents int64
}

// Mux fans one stream's SAX events to any number of engine sessions.
// Zero value is not ready; use New or NewSelective. A Mux is single-use:
// register plans with Add or AddContext, then call Run once.
type Mux struct {
	sessions []*engine.Session
	plans    []*engine.Plan
	ctxs     []context.Context // per-slot cancellation, nil = never canceled
	results  []Result
	live     []bool
	nctx     int // slots with a non-nil context
	events   int64
	ran      bool

	// nlive is atomic because under parallel dispatch slot failures are
	// recorded on worker goroutines; sequential muxes pay one uncontended
	// atomic op where a plain int decrement used to be.
	nlive atomic.Int32

	// Selective fan-out state (selective Muxes only).
	selective bool
	grouped   bool // route by per-group trie walks instead of the automaton
	groups    []*fanGroup
	slotGroup []int // slot index -> group index
	depth     int   // open elements in the scan

	// Automaton routing state (selective, non-grouped): the merged
	// machine (built by buildGroups, or installed by SetMachine from the
	// executor's cache) and its per-scan matcher.
	machine *autom.Machine
	matcher *autom.Matcher

	// Shared validation (selective muxes, see engine.Validator): one
	// validator per schema several plans share, in first-seen order, and
	// the current token's step of each. tab is the symbol table the
	// routed batch was resolved in (nil for per-event delivery).
	vals   []*engine.Validator
	vsteps []*engine.Step
	tab    sax.SymbolTable

	// stream is non-nil in streaming mode (NewStreaming): explicit
	// BeginStream/EndStream lifecycle, mid-stream subscriptions, and a
	// scan that survives having no live sessions. See stream.go.
	stream *streamState

	// parallel requests the multicore evaluation pipeline (SetParallel);
	// par is non-nil while a scan actually runs parallel. See parallel.go.
	parallel bool
	par      *parState
}

// fanGroup is one event-routing group: the plans sharing a signature,
// its identity, and — under grouped routing — the trie cursor and skip
// bookkeeping (the automaton's Matcher carries those itself).
type fanGroup struct {
	members []int
	key     string
	sig     *engine.SigNode
	val     int // index of the group's shared validator in Mux.vals, -1 for none
	stack   []*engine.SigNode
	// skipUntil, when non-zero, is the depth of the element currently
	// being skipped for this group; every event at a greater depth (and
	// the element's own end tag) is withheld.
	skipUntil int
	skipped   int64
}

// New returns an empty multiplexer that delivers every event to every
// registered plan (all-fanout).
func New() *Mux { return &Mux{} }

// NewSelective returns an empty multiplexer with selective fan-out:
// events are routed by each plan's projected-path signature, and
// subtrees a plan provably cannot match are skipped for it (see the
// package comment for the validation trade-off). Routing is evaluated
// by the batch's merged path automaton.
func NewSelective() *Mux { return &Mux{selective: true} }

// NewSelectiveGrouped returns a selective multiplexer that routes by
// walking each event-routing group's signature trie individually — the
// pre-automaton selective path. Delivery decisions, results, and skip
// counts are identical to NewSelective's; the constructor exists so
// benchmarks and differential tests can pin the merged automaton
// against the per-group walk.
func NewSelectiveGrouped() *Mux { return &Mux{selective: true, grouped: true} }

// SetMachine installs a prebuilt merged automaton (the executor caches
// one per batch signature set). The machine must have been built from
// exactly the group keys of the plans registered by Run time — one
// Machine group per distinct GroupKey, no extras — otherwise it is
// ignored and a fresh automaton is built. Call before Run; no-op on
// all-fanout, grouped, and streaming muxes.
func (m *Mux) SetMachine(mach *autom.Machine) {
	if m.selective && !m.grouped && m.stream == nil {
		m.machine = mach
	}
}

// Selective reports whether this multiplexer routes events by plan
// signature rather than delivering everything to everyone.
func (m *Mux) Selective() bool { return m.selective }

// Add registers a compiled plan whose output is written to w, returning
// the slot index of its Result in the slice Run returns.
func (m *Mux) Add(plan *engine.Plan, w io.Writer) int {
	return m.AddContext(nil, plan, w)
}

// AddContext registers a plan with its own cancellation context. When
// ctx is done the plan is detached from the event flow mid-stream — its
// Result records ctx.Err() and the stats accumulated so far — while its
// siblings keep streaming. A nil ctx means the slot is never canceled
// individually. Cancellation is observed at event-batch granularity.
func (m *Mux) AddContext(ctx context.Context, plan *engine.Plan, w io.Writer) int {
	m.sessions = append(m.sessions, engine.NewSession(plan, w))
	m.plans = append(m.plans, plan)
	m.ctxs = append(m.ctxs, ctx)
	if ctx != nil {
		m.nctx++
	}
	m.results = append(m.results, Result{})
	m.live = append(m.live, true)
	m.nlive.Add(1)
	return len(m.sessions) - 1
}

// Len reports the number of registered plans.
func (m *Mux) Len() int { return len(m.sessions) }

// Events reports the number of SAX events the shared scan tokenized —
// the per-pass cost that N independent runs would each pay again. Under
// selective fan-out individual plans may have been delivered fewer.
func (m *Mux) Events() int64 { return m.events }

// GroupStats describes one event-routing group of a selective scan.
type GroupStats struct {
	// Queries is the number of plans routed as this group.
	Queries int
	// SkippedEvents counts the scan events withheld from the group — a
	// lower bound under scanner pruning (see Result.SkippedEvents).
	SkippedEvents int64
}

// Groups reports the event-routing groups of a selective Mux in
// formation order, nil for an all-fanout Mux. Call it after Run.
func (m *Mux) Groups() []GroupStats {
	if !m.selective {
		return nil
	}
	out := make([]GroupStats, len(m.groups))
	for i, g := range m.groups {
		sk := g.skipped
		if m.matcher != nil {
			sk = m.matcher.Skipped(i)
		}
		out[i] = GroupStats{Queries: len(g.members), SkippedEvents: sk}
	}
	return out
}

// buildGroups partitions the registered plans into event-routing groups
// by (schema, signature key): plans in one group make identical skip
// decisions at every stream position, so routing is evaluated once per
// group, not once per plan. Unless the Mux routes by per-group walks
// (NewSelectiveGrouped), the groups are then compiled into one merged
// path automaton — reusing an installed SetMachine machine when its
// group-key set matches the batch exactly — and a per-scan matcher is
// created.
func (m *Mux) buildGroups() {
	if m.machine != nil && m.buildGroupsFromMachine() {
		m.matcher = m.machine.NewMatcher()
		return
	}
	m.machine = nil
	byKey := make(map[string]int)
	m.slotGroup = make([]int, len(m.plans))
	for i, p := range m.plans {
		key := GroupKey(p)
		gi, ok := byKey[key]
		if !ok {
			gi = len(m.groups)
			byKey[key] = gi
			m.groups = append(m.groups, &fanGroup{
				key:   key,
				sig:   p.Signature(),
				val:   m.groupValidator(p.Schema()),
				stack: []*engine.SigNode{p.Signature()},
			})
		}
		m.groups[gi].members = append(m.groups[gi].members, i)
		m.slotGroup[i] = gi
	}
	if !m.grouped {
		m.machine = autom.Build(m.machineGroups())
		m.matcher = m.machine.NewMatcher()
	}
	if m.stream != nil {
		m.stream.groupKeys = byKey // kept for mid-stream joins
	}
}

// buildGroupsFromMachine maps the registered plans onto an installed
// machine's group indices. It reports false — leaving the Mux to build
// a fresh automaton — when any plan's group key is unknown to the
// machine or the machine has groups no plan belongs to (either would
// change routing or pruning relative to a fresh build).
func (m *Mux) buildGroupsFromMachine() bool {
	mach := m.machine
	seen := make(map[string]bool, mach.NumGroups())
	slotGroup := make([]int, len(m.plans))
	groups := make([]*fanGroup, mach.NumGroups())
	for i, p := range m.plans {
		key := GroupKey(p)
		gi, ok := mach.GroupIndex(key)
		if !ok {
			return false
		}
		if groups[gi] == nil {
			groups[gi] = &fanGroup{key: key, sig: p.Signature()}
			seen[key] = true
		}
		groups[gi].members = append(groups[gi].members, i)
		slotGroup[i] = gi
	}
	if len(seen) != mach.NumGroups() {
		return false
	}
	for _, g := range groups {
		g.val = m.groupValidator(m.plans[g.members[0]].Schema())
	}
	m.groups = groups
	m.slotGroup = slotGroup
	return true
}

// groupValidator returns the index of the shared validator for a new
// group's schema, or -1 when only one registered plan uses the schema:
// a validator steps on every token, so a lone session validating the
// events it receives costs less.
func (m *Mux) groupValidator(schema *dtd.Schema) int {
	n := 0
	for _, p := range m.plans {
		if p.Schema() == schema {
			n++
		}
	}
	if n < 2 {
		return -1
	}
	return m.validatorFor(schema)
}

// step returns the current token's step of group g's validator, nil
// when the group's sessions validate themselves.
func (m *Mux) step(g *fanGroup) *engine.Step {
	if g.val < 0 {
		return nil
	}
	return m.vsteps[g.val]
}

// validatorFor returns the index of the shared validator for schema,
// creating it (positioned before the root) on first use.
func (m *Mux) validatorFor(schema *dtd.Schema) int {
	for i, v := range m.vals {
		if v.Schema() == schema {
			return i
		}
	}
	m.vals = append(m.vals, engine.NewValidator(schema))
	m.vsteps = append(m.vsteps, nil)
	return len(m.vals) - 1
}

// symIn returns an element's symbol in validator vi's schema: the
// scanner's resolution when the routed batch was resolved in that
// schema, a lookup otherwise.
func (m *Mux) symIn(vi int, name string, sym int32) int32 {
	schema := m.vals[vi].Schema()
	if m.tab == sax.SymbolTable(schema) {
		return sym
	}
	return schema.Sym(name)
}

// validateStart takes the start-tag step once per schema, filling
// vsteps for the sessions the tag is delivered or skip-stepped to.
func (m *Mux) validateStart(name string, sym int32) {
	for i, v := range m.vals {
		m.vsteps[i] = v.Start(name, m.symIn(i, name, sym))
	}
}

// validateSkip is validateStart for a scanner-pruned subtree.
func (m *Mux) validateSkip(name string, sym int32) {
	for i, v := range m.vals {
		m.vsteps[i] = v.Skip(name, m.symIn(i, name, sym))
	}
}

// validateEnd takes the end-tag step once per schema.
func (m *Mux) validateEnd(name string) {
	for i, v := range m.vals {
		m.vsteps[i] = v.End(name)
	}
}

// SymbolTable implements sax.SymbolSource: the scan resolves element
// names in the schema of the first registered plan — for a stream with
// no subscription yet, of the first pending one. Plans on other schemas
// look names up instead. The scanner asks once, at scan start.
func (m *Mux) SymbolTable() sax.SymbolTable {
	if len(m.plans) > 0 {
		return m.plans[0].Schema()
	}
	if st := m.stream; st != nil {
		st.pendMu.Lock()
		defer st.pendMu.Unlock()
		if len(st.pend) > 0 {
			return st.pend[0].plan.Schema()
		}
	}
	return nil
}

// machineGroups renders the Mux's routing groups, in index order, as
// the merged automaton's Build input.
func (m *Mux) machineGroups() []autom.Group {
	gs := make([]autom.Group, len(m.groups))
	for i, g := range m.groups {
		gs[i] = autom.Group{Key: g.key, Sig: g.sig}
	}
	return gs
}

// GroupKey identifies a plan's event-routing group: plans compiled
// against the same schema with equal signature keys route identically.
// The executor uses it to key its merged-automaton cache with the same
// identity the Mux groups by.
func GroupKey(p *engine.Plan) string {
	return fmt.Sprintf("%p|%s", p.Schema(), p.SigKey())
}

// errAllFailed aborts the scan early once no session is listening.
var errAllFailed = errors.New("mux: all queries failed")

// fail detaches slot i from the event flow, recording err and the stats
// accumulated up to the failure. Called on the scan goroutine; parallel
// workers use parFail, which additionally records the failure position.
func (m *Mux) fail(i int, err error) {
	m.results[i].Err = err
	m.results[i].Stats = m.sessions[i].Abort()
	m.live[i] = false
	m.nlive.Add(-1)
	if m.stream != nil && m.stream.onDetach != nil {
		m.stream.onDetach(i, err)
	}
}

// ctxPollMask batches per-slot cancellation polls: contexts are checked
// once every 256 fanned events, bounding a canceled query's extra work
// to one small event batch without a per-event ctx.Err() in the hot loop.
const ctxPollMask = 255

// pollCtxs detaches every live slot whose context is done. Called at
// event-batch granularity from the per-event fan-out handlers.
func (m *Mux) pollCtxs() {
	if m.nctx == 0 || m.events&ctxPollMask != 0 {
		return
	}
	m.pollCtxsNow()
}

// pollCtxsNow is pollCtxs without the event-count gate; the batched
// delivery path calls it once per batch.
func (m *Mux) pollCtxsNow() {
	for i, ctx := range m.ctxs {
		if ctx == nil || !m.live[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			m.fail(i, err)
		}
	}
}

// HandleBatch implements sax.BatchHandler — the batched shared scan.
// All-fanout delivery hands the whole batch to each live session in one
// call, one dynamic dispatch per session per batch instead of one per
// session per event; selective fan-out routes token by token, since
// skip decisions are made per element. Per-slot cancellation is polled
// once per batch.
func (m *Mux) HandleBatch(b *sax.Batch) error {
	m.events += int64(len(b.Tokens))
	if m.par != nil {
		// Parallel pipeline: the producer half runs the matcher and feeds
		// the worker pool; workers poll per-slot cancellation themselves.
		return m.parHandleBatch(b)
	}
	if m.nctx > 0 {
		m.pollCtxsNow()
	}
	if m.stream != nil {
		// Streaming: route, then push every live session's buffered
		// output to its subscriber — results become visible at batch
		// granularity, not end of document.
		if err := m.routeBatch(b); err != nil {
			return err
		}
		m.flushLive()
		return nil
	}
	if m.selective {
		return m.routeBatch(b)
	}
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		if err := s.HandleBatch(b); err != nil {
			m.fail(i, err)
		}
	}
	if m.nlive.Load() == 0 {
		return errAllFailed
	}
	return nil
}

// routeBatch unpacks a batch through the selective router. Text tokens
// keep their arena-backed payloads all the way into the sessions
// (Session.TextBytes), so the batched selective scan allocates no text
// strings either.
func (m *Mux) routeBatch(b *sax.Batch) error {
	m.tab = b.Syms
	for i := range b.Tokens {
		t := &b.Tokens[i]
		if m.stream != nil && m.depth <= 1 && m.stream.npend.Load() > 0 {
			// A sync point: the stream is before the root or between
			// complete top-level subtrees, so queued subscriptions can
			// join here.
			m.activatePending()
		}
		var err error
		switch t.Kind {
		case sax.StartElement:
			err = m.routeStart(t.Name, t.Sym)
		case sax.EndElement:
			err = m.routeEnd(t.Name)
		case sax.SkipElement:
			err = m.routeSkip(t.Name, t.Sym)
		default:
			err = m.routeTextBytes(t.Data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// StartElement implements sax.Handler.
func (m *Mux) StartElement(name string) error {
	m.events++
	m.pollCtxs()
	if m.selective {
		m.tab = nil // per-event delivery carries no symbols
		return m.routeStart(name, -1)
	}
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		if err := s.StartElement(name); err != nil {
			m.fail(i, err)
		}
	}
	if m.nlive.Load() == 0 {
		return errAllFailed
	}
	return nil
}

// routeStart is StartElement under selective fan-out: each group either
// descends the signature trie and receives the event, or — when no
// signature path can match the subtree — collapses it into one
// SkipSubtree step and withholds everything until the matching end tag.
// Automaton routing makes the same decision for all groups in one
// matcher step; grouped routing walks each group's own trie cursor.
// Either way the tag is validated once per schema, and every session it
// reaches adopts that step. sym is the tag's symbol in m.tab.
func (m *Mux) routeStart(name string, sym int32) error {
	m.depth++
	if m.stream != nil && m.depth == 1 {
		m.stream.rootName = name
	}
	m.validateStart(name, sym)
	if m.matcher != nil {
		deliver, skip := m.matcher.Start(name)
		for w, word := range skip {
			for word != 0 {
				g := m.groups[w<<6+bits.TrailingZeros64(word)]
				word &= word - 1
				st := m.step(g)
				for _, i := range g.members {
					if !m.live[i] {
						continue
					}
					if err := m.sessions[i].SkipStep(name, st); err != nil {
						m.fail(i, err)
					}
				}
			}
		}
		for w, word := range deliver {
			for word != 0 {
				g := m.groups[w<<6+bits.TrailingZeros64(word)]
				word &= word - 1
				st := m.step(g)
				for _, i := range g.members {
					if !m.live[i] {
						continue
					}
					if err := m.sessions[i].StartStep(name, st); err != nil {
						m.fail(i, err)
					}
				}
			}
		}
		if m.nlive.Load() == 0 && m.stream == nil {
			return errAllFailed
		}
		return nil
	}
	for _, g := range m.groups {
		if g.skipUntil != 0 {
			g.skipped++
			continue
		}
		cur := g.stack[len(g.stack)-1]
		next := cur
		if !cur.All {
			next = cur.Kids[name]
		}
		st := m.step(g)
		if next == nil {
			for _, i := range g.members {
				if !m.live[i] {
					continue
				}
				if err := m.sessions[i].SkipStep(name, st); err != nil {
					m.fail(i, err)
				}
			}
			g.skipUntil = m.depth
			continue
		}
		g.stack = append(g.stack, next)
		for _, i := range g.members {
			if !m.live[i] {
				continue
			}
			if err := m.sessions[i].StartStep(name, st); err != nil {
				m.fail(i, err)
			}
		}
	}
	if m.nlive.Load() == 0 && m.stream == nil {
		return errAllFailed
	}
	return nil
}

// Text implements sax.Handler.
func (m *Mux) Text(data string) error {
	m.events++
	m.pollCtxs()
	if m.selective {
		return m.routeText(data)
	}
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		if err := s.Text(data); err != nil {
			m.fail(i, err)
		}
	}
	if m.nlive.Load() == 0 {
		return errAllFailed
	}
	return nil
}

// routeText delivers character data to every group not inside a
// skipped subtree, except at spine positions whose production is mixed
// (SigNode.DropText): there text is always legal and a spine position
// consumes nothing, so the event is withheld and counted as skipped.
// Non-mixed spine positions still get their text — in a valid document
// that is only whitespace the scanner has not already dropped, and in an
// invalid one it is stray character data that must fail validation
// exactly as it does under all-fanout.
func (m *Mux) routeText(data string) error {
	if m.matcher != nil {
		deliver := m.matcher.Text()
		for w, word := range deliver {
			for word != 0 {
				g := m.groups[w<<6+bits.TrailingZeros64(word)]
				word &= word - 1
				for _, i := range g.members {
					if !m.live[i] {
						continue
					}
					if err := m.sessions[i].Text(data); err != nil {
						m.fail(i, err)
					}
				}
			}
		}
		if m.nlive.Load() == 0 && m.stream == nil {
			return errAllFailed
		}
		return nil
	}
	for _, g := range m.groups {
		if g.skipUntil != 0 {
			g.skipped++
			continue
		}
		if cur := g.stack[len(g.stack)-1]; !cur.All && cur.DropText {
			g.skipped++
			continue
		}
		for _, i := range g.members {
			if !m.live[i] {
				continue
			}
			if err := m.sessions[i].Text(data); err != nil {
				m.fail(i, err)
			}
		}
	}
	if m.nlive.Load() == 0 && m.stream == nil {
		return errAllFailed
	}
	return nil
}

// routeTextBytes is routeText for arena-backed batch payloads, fanning
// the bytes to each group member without a string conversion.
func (m *Mux) routeTextBytes(data []byte) error {
	if m.matcher != nil {
		deliver := m.matcher.Text()
		for w, word := range deliver {
			for word != 0 {
				g := m.groups[w<<6+bits.TrailingZeros64(word)]
				word &= word - 1
				for _, i := range g.members {
					if !m.live[i] {
						continue
					}
					if err := m.sessions[i].TextBytes(data); err != nil {
						m.fail(i, err)
					}
				}
			}
		}
		if m.nlive.Load() == 0 && m.stream == nil {
			return errAllFailed
		}
		return nil
	}
	for _, g := range m.groups {
		if g.skipUntil != 0 {
			g.skipped++
			continue
		}
		if cur := g.stack[len(g.stack)-1]; !cur.All && cur.DropText {
			g.skipped++
			continue
		}
		for _, i := range g.members {
			if !m.live[i] {
				continue
			}
			if err := m.sessions[i].TextBytes(data); err != nil {
				m.fail(i, err)
			}
		}
	}
	if m.nlive.Load() == 0 && m.stream == nil {
		return errAllFailed
	}
	return nil
}

// EndElement implements sax.Handler.
func (m *Mux) EndElement(name string) error {
	m.events++
	m.pollCtxs()
	if m.selective {
		return m.routeEnd(name)
	}
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		if err := s.EndElement(name); err != nil {
			m.fail(i, err)
		}
	}
	if m.nlive.Load() == 0 {
		return errAllFailed
	}
	return nil
}

// routeEnd is EndElement under selective fan-out: a skipping group
// resumes routing when the skipped element's own end tag goes by (the
// SkipSubtree step already accounted for the whole element).
func (m *Mux) routeEnd(name string) error {
	m.validateEnd(name)
	if m.matcher != nil {
		deliver := m.matcher.End()
		for w, word := range deliver {
			for word != 0 {
				g := m.groups[w<<6+bits.TrailingZeros64(word)]
				word &= word - 1
				st := m.step(g)
				for _, i := range g.members {
					if !m.live[i] {
						continue
					}
					if err := m.sessions[i].EndStep(name, st); err != nil {
						m.fail(i, err)
					}
				}
			}
		}
		m.depth--
		if m.stream != nil && m.depth == 0 {
			m.stream.rootClosed = true
		}
		if m.nlive.Load() == 0 && m.stream == nil {
			return errAllFailed
		}
		return nil
	}
	for _, g := range m.groups {
		if g.skipUntil != 0 {
			g.skipped++
			if m.depth == g.skipUntil {
				g.skipUntil = 0
			}
			continue
		}
		g.stack = g.stack[:len(g.stack)-1]
		st := m.step(g)
		for _, i := range g.members {
			if !m.live[i] {
				continue
			}
			if err := m.sessions[i].EndStep(name, st); err != nil {
				m.fail(i, err)
			}
		}
	}
	m.depth--
	if m.stream != nil && m.depth == 0 {
		m.stream.rootClosed = true
	}
	if m.nlive.Load() == 0 && m.stream == nil {
		return errAllFailed
	}
	return nil
}

// Run scans the XML document from r once, delivering every event to all
// registered plans (or, under selective fan-out, to the plans whose
// signature can match it), and returns one Result per plan in Add order.
//
// Per-query failures (schema violations under a plan's DTD, write errors
// on a query's output, a done AddContext context) are isolated in that
// query's Result. The returned error is reserved for stream-level
// failures that necessarily end every query: malformed XML, a read
// error, a done scan context, or all queries having failed. A nil ctx
// means the scan itself is never canceled.
func (m *Mux) Run(ctx context.Context, r io.Reader, opt sax.Options) ([]Result, error) {
	if m.stream != nil {
		return nil, errors.New("mux: Run on a streaming mux (use BeginStream/EndStream)")
	}
	if m.ran {
		return nil, errors.New("mux: Run called twice")
	}
	m.ran = true
	if ctx == nil {
		ctx = context.Background()
	}
	if m.selective {
		m.buildGroups()
		// Prune, at the scan itself, the subtrees every group skips: their
		// bytes are consumed raw and arrive as single SkipElement tokens
		// instead of being tokenized and routed token by token. Subtrees
		// only some groups skip are still routed here.
		if m.machine != nil {
			opt.Prune = m.machine.Prune()
		} else {
			opt.Prune = m.unionPrune()
		}
	}
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		if err := s.Begin(); err != nil {
			m.fail(i, err)
		}
	}
	if m.nlive.Load() > 0 {
		m.startParallel()
		err := sax.ScanBatchedContext(ctx, r, m, opt)
		m.stopParallel()
		if m.nlive.Load() == 0 {
			// All queries failed mid-stream. Sequential routing aborts at
			// the exact failing token; the parallel producer may only
			// notice at the next batch boundary, but either way the
			// sequential-equivalent outcome is errAllFailed (parFillSkipped
			// reconstructs the counters as of the true abort token).
			m.fillSkipped()
			return m.results, errAllFailed
		}
		if err != nil {
			m.fillSkipped()
			// The stream itself is bad: every remaining query inherits
			// the failure.
			for i := range m.sessions {
				if m.live[i] {
					m.fail(i, err)
				}
			}
			return m.results, err
		}
	} else if len(m.sessions) > 0 {
		return m.results, errAllFailed
	}
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		st, err := s.Finish()
		m.results[i] = Result{Stats: st, Err: err}
		m.live[i] = false
	}
	m.nlive.Store(0)
	m.fillSkipped()
	return m.results, nil
}

// unionPrune merges the groups' signature tries into one scanner prune
// trie: a position is pruned only when no group's signature can match
// anything inside it. Returns nil (no pruning) if any plan lacks a
// signature.
func (m *Mux) unionPrune() *sax.PruneNode {
	sigs := make([]*engine.SigNode, len(m.groups))
	for i, g := range m.groups {
		if g.stack[0] == nil {
			return nil
		}
		sigs[i] = g.stack[0]
	}
	return unionSigs(sigs)
}

func unionSigs(nodes []*engine.SigNode) *sax.PruneNode {
	p := &sax.PruneNode{}
	kids := make(map[string][]*engine.SigNode)
	for _, n := range nodes {
		if n.All {
			// Some group consumes everything below here: nothing under this
			// position may be pruned, and Kids are irrelevant.
			return &sax.PruneNode{All: true}
		}
		for k, v := range n.Kids {
			kids[k] = append(kids[k], v)
		}
	}
	if len(kids) > 0 {
		p.Kids = make(map[string]*sax.PruneNode, len(kids))
		for k, vs := range kids {
			p.Kids[k] = unionSigs(vs)
		}
	}
	return p
}

// routeSkip fans a scanner-pruned subtree (a SkipElement token) out as
// one SkipSubtree step per live member of every group not already inside
// a subtree it is skipping itself. The scan never tokenized the
// element's interior, so each group's SkippedEvents counter advances by
// one — the element itself — rather than by its (unknown) event count:
// under scanner pruning the counter is a lower bound.
func (m *Mux) routeSkip(name string, sym int32) error {
	m.validateSkip(name, sym)
	if m.matcher != nil {
		deliver := m.matcher.Skip()
		for w, word := range deliver {
			for word != 0 {
				g := m.groups[w<<6+bits.TrailingZeros64(word)]
				word &= word - 1
				st := m.step(g)
				for _, i := range g.members {
					if !m.live[i] {
						continue
					}
					if err := m.sessions[i].SkipStep(name, st); err != nil {
						m.fail(i, err)
					}
				}
			}
		}
		if m.nlive.Load() == 0 && m.stream == nil {
			return errAllFailed
		}
		return nil
	}
	for _, g := range m.groups {
		g.skipped++
		if g.skipUntil != 0 {
			continue
		}
		st := m.step(g)
		for _, i := range g.members {
			if !m.live[i] {
				continue
			}
			if err := m.sessions[i].SkipStep(name, st); err != nil {
				m.fail(i, err)
			}
		}
	}
	if m.nlive.Load() == 0 && m.stream == nil {
		return errAllFailed
	}
	return nil
}

// fillSkipped copies each routing group's skip counter onto its
// members' Results.
func (m *Mux) fillSkipped() {
	if !m.selective {
		return
	}
	if m.par != nil && m.par.fixup {
		// All queries failed under the parallel pipeline: reconstruct the
		// counters as of the true abort token, where sequential routing
		// would have stopped (the producer's matcher ran further).
		m.parFillSkipped()
		m.par.recycleRing()
		return
	}
	if m.matcher != nil {
		m.matcher.Flush()
		for i := range m.results {
			m.results[i].SkippedEvents = m.matcher.Skipped(m.slotGroup[i])
		}
		return
	}
	for i := range m.results {
		m.results[i].SkippedEvents = m.groups[m.slotGroup[i]].skipped
	}
}
