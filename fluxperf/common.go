package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"flux/internal/autom"
	"flux/internal/bench"
	"flux/internal/dom"
	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
	"flux/internal/xq"
)

// scanOpt is the scanner configuration every serving path uses.
var scanOpt = sax.Options{SkipWhitespaceText: true}

// document is one generated XMark input file. Runs read it from the
// file, as the serving paths do, so the benchmark holds no copy of it in
// the heap it measures.
type document struct {
	path string
	size int64
}

// loadDocument generates (or reuses) the seeded XMark document of sizeMB
// megabytes under dir.
func loadDocument(dir string, sizeMB int, seed int64) (document, error) {
	path, size, err := bench.EnsureDocument(dir, sizeMB, seed)
	if err != nil {
		return document{}, fmt.Errorf("generate %d MB document: %w", sizeMB, err)
	}
	return document{path: path, size: size}, nil
}

// read calls fn with the document opened for reading.
func (d document) read(fn func(r io.Reader) error) error {
	f, err := os.Open(d.path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func (d document) mb() float64 { return float64(d.size) / (1 << 20) }

// digest is a sha256 of one query's output.
type digest [sha256.Size]byte

// oracle computes the DOM oracle's output digest for each query over doc:
// the two steps of flux.Naive (dom.Build, then dom.Eval of the parsed
// query), with the tree built once and shared by all queries. Queries are
// evaluated on up to nproc goroutines; the tree is only read.
func oracle(doc document, queries []string) ([]digest, error) {
	var root *dom.Node
	err := doc.read(func(r io.Reader) (err error) {
		root, err = dom.Build(r, scanOpt)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	out := make([]digest, len(queries))
	errs := make([]error, len(queries))
	next := make(chan int, len(queries))
	for i := range queries {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for range min(runtime.NumCPU(), len(queries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				expr, err := xq.Parse(queries[i])
				if err != nil {
					errs[i] = err
					continue
				}
				h := sha256.New()
				w := sax.NewWriter(h)
				if err := dom.Eval(expr, root, w); err != nil {
					errs[i] = err
					continue
				}
				if err := w.Flush(); err != nil {
					errs[i] = err
					continue
				}
				copy(out[i][:], h.Sum(nil))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle query %d: %w", i, err)
		}
	}
	root = nil
	settle()
	return out, nil
}

// settle collects garbage left by input preparation so it does not land
// in the timed loop.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// sumWriter hashes what is written to it and stamps the first write.
type sumWriter struct {
	h     hash.Hash
	first time.Time
}

func newSumWriter() *sumWriter { return &sumWriter{h: sha256.New()} }

func (w *sumWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	return w.h.Write(p)
}

func (w *sumWriter) sum() (d digest) {
	copy(d[:], w.h.Sum(nil))
	return d
}

// check compares a query's output with the oracle.
func check(name string, got, want digest) error {
	if got != want {
		return fmt.Errorf("%s: output differs from the DOM oracle", name)
	}
	return nil
}

// --- tracing ---------------------------------------------------------------

// span is one timed call into a layer; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced loops run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// dump writes the spans as JSON to dir and returns how many there were.
func (t *tracer) dump(dir, workload string, seed int64) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	return len(t.spans), os.WriteFile(path, data, 0o644)
}

// measure runs a workload's closed loop untraced for d and records the
// median operation time (p50_ms). It then records peak_heap_bytes from a
// separate memory pass of memoryPasses operations (see peakHeap).
func measure(rep *report, d time.Duration, loop func(tr *tracer, d time.Duration) ([]time.Duration, error)) error {
	settle()
	ds, err := loop(nil, d)
	if err != nil {
		return err
	}
	rep.e2e["p50_ms"] = metric{ms(median(ds)), "ms"}
	peak, err := peakHeap(func() error {
		for range memoryPasses {
			if _, err := loop(nil, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.e2e["peak_heap_bytes"] = metric{float64(peak), "B"}
	return nil
}

// memoryPasses is how many operations the memory pass runs. The peak is
// their maximum: one operation sometimes ends a collection just after
// its peak and sometimes just before, and the maximum of three settles
// on the higher reading.
const memoryPasses = 3

// memoryGCPercent is the GOGC setting of the memory pass: low enough
// that collections run back to back, so the live heap the runtime
// reports after each one traces the program's true live heap closely.
const memoryGCPercent = 1

// peakHeap runs fn in the memory pass, untimed, and returns the
// peak live heap observed: the most memory the program needed at once.
// Collecting continuously makes the figure independent of where
// ordinary GC cycles happen to fall, which would otherwise dominate its
// run-to-run spread.
func peakHeap(fn func() error) (uint64, error) {
	settle()
	old := debug.SetGCPercent(memoryGCPercent)
	defer debug.SetGCPercent(old)
	hw := watchHeap()
	err := fn()
	return hw.finish(), err
}

// traced runs a workload's closed loop the way a traced run does: untraced
// for half of d, then for a quarter of d in alternating untraced and
// traced rounds, whose medians give the tracing overhead (traced minus
// untraced). It returns the first half's durations; the caller has the
// last quarter for its stage ladder.
func traced(rep *report, tr *tracer, d time.Duration, loop func(tr *tracer, d time.Duration) ([]time.Duration, error)) ([]time.Duration, error) {
	plain, err := loop(nil, d/2)
	if err != nil {
		return nil, err
	}
	var off, on []time.Duration
	deadline := time.Now().Add(d / 4)
	for len(on) == 0 || time.Now().Before(deadline) {
		a, err := loop(nil, 0)
		if err != nil {
			return nil, err
		}
		b, err := loop(tr, 0)
		if err != nil {
			return nil, err
		}
		off, on = append(off, a...), append(on, b...)
	}
	rep.layer["trace.overhead_ms"] = metric{ms(median(on) - median(off)), "ms"}
	return plain, nil
}

// finishTrace dumps the spans and records their count.
func finishTrace(rep *report, tr *tracer, e env, workload string) error {
	n, err := tr.dump(e.dir, workload, e.seed)
	if err != nil {
		return err
	}
	rep.layer["trace.spans"] = metric{float64(n), "count"}
	return nil
}

// --- stage ladder -----------------------------------------------------------

// ladder is the cumulative stage ladder, run over the same input as the
// workload:
//
//	0: the scan into a counting no-op handler, with the real prune trie
//	1: stage 0 plus the merged-automaton matcher driven in the handler
//	2: the full engine/mux run with io.Discard writers
//	3: stage 2 with the real (hashing) writers
//
// Self time of a layer is the difference between neighbouring stages.
// A nil stage 1 means the workload does not route through an automaton.
type ladder [4]func(tr *tracer, parent int) error

// extraStage is a stage measured beside the ladder, in the same rounds
// (mux.parallel_ms); runLadder sets med to its median.
type extraStage struct {
	name string
	fn   func(tr *tracer, parent int) error
	ds   []time.Duration
	med  time.Duration
}

// runLadder repeats the ladder (and extra stages) in rounds until d has
// elapsed, at least three rounds, records the per-layer self times, and
// returns the stage medians. Without a stage 1, autom.self_ms is left
// for the caller to mark absent.
func runLadder(rep *report, tr *tracer, d time.Duration, l ladder, extras ...*extraStage) ([4]time.Duration, error) {
	var ds [4][]time.Duration
	run := func(name string, parent int, fn func(tr *tracer, parent int) error) (time.Duration, error) {
		sp := tr.begin(name, parent)
		defer tr.end(sp)
		start := time.Now()
		if err := fn(tr, sp); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return time.Since(start), nil
	}
	deadline := time.Now().Add(d)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		rs := tr.begin("ladder.round", 0)
		for i, fn := range l {
			if fn == nil {
				continue
			}
			t, err := run(fmt.Sprintf("ladder.stage%d", i), rs, fn)
			if err != nil {
				return [4]time.Duration{}, err
			}
			ds[i] = append(ds[i], t)
		}
		for _, x := range extras {
			t, err := run("ladder."+x.name, rs, x.fn)
			if err != nil {
				return [4]time.Duration{}, err
			}
			x.ds = append(x.ds, t)
		}
		tr.end(rs)
	}
	// Self times are medians of the per-round differences between
	// neighbouring stages, which cancels drift between rounds.
	self := func(hi, lo int) time.Duration {
		var diffs []time.Duration
		for r := range ds[hi] {
			base := time.Duration(0)
			if lo >= 0 {
				base = ds[lo][r]
			}
			diffs = append(diffs, ds[hi][r]-base)
		}
		return median(diffs)
	}
	below2 := 0 // the stage that stage 2 adds to
	if l[1] != nil {
		below2 = 1
		rep.layer["autom.self_ms"] = metric{ms(self(1, 0)), "ms"}
	}
	rep.layer["sax.self_ms"] = metric{ms(self(0, -1)), "ms"}
	rep.layer["engine.self_ms"] = metric{ms(self(2, below2)), "ms"}
	rep.layer["output.self_ms"] = metric{ms(self(3, 2)), "ms"}
	medians := [4]time.Duration{median(ds[0]), median(ds[1]), median(ds[2]), median(ds[3])}
	for _, x := range extras {
		x.med = median(x.ds)
	}
	return medians, nil
}

// countHandler is stage 0's handler: it only counts tokens.
type countHandler struct{ tokens, skips int64 }

func (h *countHandler) HandleBatch(b *sax.Batch) error {
	h.tokens += int64(len(b.Tokens))
	for i := range b.Tokens {
		if b.Tokens[i].Kind == sax.SkipElement {
			h.skips++
		}
	}
	return nil
}

// matchHandler is stage 1's handler: it drives a merged-automaton matcher
// over every token and counts the group deliveries it decides.
type matchHandler struct {
	t          *autom.Matcher
	events     int64
	deliveries int64
}

func (h *matchHandler) HandleBatch(b *sax.Batch) error {
	for i := range b.Tokens {
		tok := &b.Tokens[i]
		n := 0
		switch tok.Kind {
		case sax.StartElement:
			d, s := h.t.Start(tok.Name)
			n = d.Count() + s.Count()
		case sax.Text:
			n = h.t.Text().Count()
		case sax.EndElement:
			n = h.t.End().Count()
		case sax.SkipElement:
			n = h.t.Skip().Count()
		}
		h.events++
		h.deliveries += int64(n)
	}
	return nil
}

// buildMachine merges the plans' signatures into one automaton the way
// the executor does: one group per distinct mux group key, keys sorted.
func buildMachine(plans []*engine.Plan) *autom.Machine {
	sigs := map[string]*engine.SigNode{}
	var keys []string
	for _, p := range plans {
		key := mux.GroupKey(p)
		if _, ok := sigs[key]; !ok {
			sigs[key] = p.Signature()
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	groups := make([]autom.Group, len(keys))
	for i, key := range keys {
		groups[i] = autom.Group{Key: key, Sig: sigs[key]}
	}
	return autom.Build(groups)
}

// runMux runs one shared scan of plans over doc through a selective mux
// with the merged automaton mach, checks hashed outputs against want,
// and records the mux and engine counts.
func runMux(ctx context.Context, rep *report, tr *tracer, parent int, b *batch, parallel, hashed bool) error {
	m := mux.NewSelective()
	m.SetMachine(b.mach)
	m.SetParallel(parallel)
	sums := make([]*sumWriter, len(b.plans))
	for i, p := range b.plans {
		if hashed {
			sums[i] = newSumWriter()
			m.Add(p, sums[i])
		} else {
			m.Add(p, io.Discard)
		}
	}
	var results []mux.Result
	sp := tr.begin("mux.Run", parent)
	err := b.doc.read(func(r io.Reader) (err error) {
		results, err = m.Run(ctx, r, scanOpt)
		return err
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	var tokens, out int64
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", b.names[i], r.Err)
		}
		tokens += r.Stats.Tokens
		out += r.Stats.OutputBytes
		if hashed {
			if err := check(b.names[i], sums[i].sum(), b.want[i]); err != nil {
				return err
			}
		}
	}
	rep.layer["engine.tokens"] = metric{float64(tokens), "count"}
	rep.layer["mux.events"] = metric{float64(m.Events()), "count"}
	rep.layer["output.bytes"] = metric{float64(out), "B"}
	return nil
}

// batch is one shared scan's input: plans over doc, their names and
// oracle digests, and their merged automaton.
type batch struct {
	doc   document
	plans []*engine.Plan
	names []string
	want  []digest
	mach  *autom.Machine
}

// ladder returns the stage ladder of the batch's shared scan, the shape
// of wide-batch and of the pull side of served-mix. Counts land in rep
// as the stages run.
func (b *batch) ladder(ctx context.Context, rep *report) ladder {
	pruned := scanOpt
	pruned.Prune = b.mach.Prune()
	return ladder{
		func(tr *tracer, parent int) error {
			h := &countHandler{}
			sp := tr.begin("sax.ScanBatchedContext", parent)
			err := b.doc.read(func(r io.Reader) error { return sax.ScanBatchedContext(ctx, r, h, pruned) })
			tr.end(sp)
			rep.layer["sax.tokens"] = metric{float64(h.tokens), "count"}
			rep.layer["sax.skip_elements"] = metric{float64(h.skips), "count"}
			return err
		},
		func(tr *tracer, parent int) error {
			h := &matchHandler{t: b.mach.NewMatcher()}
			sp := tr.begin("autom.Matcher", parent)
			err := b.doc.read(func(r io.Reader) error { return sax.ScanBatchedContext(ctx, r, h, pruned) })
			tr.end(sp)
			rep.layer["autom.delivery_ratio"] = metric{float64(h.deliveries) / float64(max(h.events, 1)*int64(b.mach.NumGroups())), "ratio"}
			return err
		},
		func(tr *tracer, parent int) error { return runMux(ctx, rep, tr, parent, b, false, false) },
		func(tr *tracer, parent int) error { return runMux(ctx, rep, tr, parent, b, false, true) },
	}
}

// parallel is the extra ladder stage for mux.parallel_ms: stage 3 with
// the mux's parallel per-group pipeline on.
func (b *batch) parallel(ctx context.Context, rep *report) *extraStage {
	return &extraStage{name: "mux.parallel", fn: func(tr *tracer, parent int) error {
		return runMux(ctx, rep, tr, parent, b, true, true)
	}}
}

// automLayer records the merged automaton's build time (median of
// several builds) and state count.
func automLayer(rep *report, plans []*engine.Plan) *autom.Machine {
	var ds []time.Duration
	var mach *autom.Machine
	for range 9 {
		start := time.Now()
		mach = buildMachine(plans)
		ds = append(ds, time.Since(start))
	}
	rep.layer["autom.build_ms"] = metric{ms(median(ds)), "ms"}
	rep.layer["autom.states"] = metric{float64(mach.States()), "count"}
	return mach
}

// muxSpeedup records mux.seq_ms (ladder stage 3), mux.parallel_ms and
// their ratio seq/parallel.
func muxSpeedup(rep *report, seq time.Duration, par *extraStage) {
	p := par.med
	rep.layer["mux.seq_ms"] = metric{ms(seq), "ms"}
	rep.layer["mux.parallel_ms"] = metric{ms(p), "ms"}
	rep.layer["mux.parallel_speedup"] = metric{float64(seq) / float64(p), "ratio"}
}

// prepareTimes records compile.prepare_ms: the median over the queries
// of each query's median compile time.
func prepareTimes(rep *report, queries []string, prepare func(string) error) error {
	var per []time.Duration
	for _, q := range queries {
		var ds []time.Duration
		for range 5 {
			start := time.Now()
			if err := prepare(q); err != nil {
				return err
			}
			ds = append(ds, time.Since(start))
		}
		per = append(per, median(ds))
	}
	rep.layer["compile.prepare_ms"] = metric{ms(median(per)), "ms"}
	return nil
}

// peakMetric names a query's per-query peak metric.
func peakMetric(qname string) string { return "engine.peak_buffer_bytes." + qname }

// markAbsent records why per-layer metrics are 0 on this workload.
func markAbsent(rep *report, why string, names ...string) {
	for _, n := range names {
		rep.absent[n] = why
	}
}

// heapWatch samples the Go runtime's live heap (the bytes marked live
// by the most recent collection) every millisecond and keeps the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64())
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops the sampler and returns the peak live heap in bytes.
func (w *heapWatch) finish() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}
