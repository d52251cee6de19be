package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"flux"
	"flux/internal/engine"
	"flux/internal/xmark"
)

// servedMB is the size of each of the two served documents.
const servedMB = 1

// servedRate is served-mix's fixed offered rate in requests per second:
// about 40% of the highest rate a 2-CPU machine (x86-64, Go 1.24)
// sustained for this mix without a growing backlog, about 130 req/s.
// At 60% the median request sat where queueing sets in, and the median
// swung by half between runs; at 40% it is steady. A 20 s run offers
// 1000 requests, so its 99th percentile has ten samples beyond it.
const servedRate = 50

// genLateLimit is how late the load generator may hand a request to its
// senders, at the 99th percentile, before the run is declared invalid.
// On a busy 2-CPU machine the operating system wakes the generator up to
// about 10 ms late now and then; a generator that cannot keep up with the
// schedule falls further behind with every request and passes this at
// once. Beyond it the generator, not the system, would set the tail.
const genLateLimit = 25 * time.Millisecond

// servedReq is one request of the mix: which document and query.
type servedReq struct{ doc, query int }

// servedResult is one response's measurement.
type servedResult struct {
	ttfb      time.Duration // send to response headers
	peak      int64
	batchSize int64
	err       error
}

// servedMix holds the mix's inputs and oracle.
type servedMix struct {
	names   []string
	queries []string
	want    [][]digest // [doc][query]
	client  *http.Client
}

// send posts one query to base and checks the streamed body against the
// oracle.
func (s *servedMix) send(ctx context.Context, base string, r servedReq) (res servedResult) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/query?doc="+servedDocs[r.doc], strings.NewReader(s.queries[r.query]))
	if err != nil {
		res.err = err
		return res
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	res.ttfb = time.Since(start)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	sw := newSumWriter()
	if _, err := io.Copy(sw, resp.Body); err != nil {
		res.err = err
		return res
	}
	name := servedDocs[r.doc] + "/" + s.names[r.query]
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("%s: status %d", name, resp.StatusCode)
		return res
	}
	res.err = check(name, sw.sum(), s.want[r.doc][r.query])
	res.peak, _ = strconv.ParseInt(resp.Trailer.Get("X-Flux-Peak-Buffer-Bytes"), 10, 64)
	res.batchSize, _ = strconv.ParseInt(resp.Trailer.Get("X-Flux-Batch-Size"), 10, 64)
	return res
}

// openLoop is one open-loop pass's measurements.
type openLoop struct {
	latency []time.Duration // from each request's due time to its completion
	late    []time.Duration // how late the generator handed each request over
	results []servedResult
}

// runOpenLoop offers servedRate requests per second for d along a seeded
// Poisson schedule. One generator goroutine releases each request at its
// due time to nproc senders, which share at most nproc connections;
// latency counts from the due time, so a stall shows on every request
// queued behind it.
func (s *servedMix) runOpenLoop(ctx context.Context, tr *tracer, base string, d time.Duration, rng *rand.Rand) openLoop {
	n := max(int(servedRate*d.Seconds()), 1)
	due := make([]time.Duration, n)
	reqs := make([]servedReq, n)
	// Requests come in blocks of one seeded permutation of every
	// (document, query) pair, so every run offers the same mix and only
	// the order and arrival times vary with the seed.
	pairs := len(servedDocs) * len(s.queries)
	var block []int
	var at float64
	for i := range n {
		at += rng.ExpFloat64() / servedRate
		due[i] = time.Duration(at * float64(time.Second))
		if i%pairs == 0 {
			block = rng.Perm(pairs)
		}
		p := block[i%pairs]
		reqs[i] = servedReq{doc: p / len(s.queries), query: p % len(s.queries)}
	}
	ol := openLoop{latency: make([]time.Duration, n), late: make([]time.Duration, n), results: make([]servedResult, n)}
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sp := tr.begin("http POST /query", 0)
				ol.results[i] = s.send(ctx, base, reqs[i])
				tr.end(sp)
				ol.latency[i] = time.Since(start.Add(due[i]))
			}
		}()
	}
	for i := range n {
		dueAt := start.Add(due[i])
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		ol.late[i] = time.Since(dueAt)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return ol
}

// sweep sends every (document, query) pair once, one after another,
// counts each as an operation, and returns the summed peak buffer bytes.
func (s *servedMix) sweep(ctx context.Context, rep *report, base string) int64 {
	var peaks int64
	for d := range servedDocs {
		for q := range s.queries {
			res := s.send(ctx, base, servedReq{doc: d, query: q})
			rep.op(res.err)
			peaks += res.peak
		}
	}
	return peaks
}

// runServedMix offers a fixed-rate open-loop mix of the five Figure 4
// queries and the six fan-out queries over two 1 MB documents, through a
// router in front of two embedded shard workers on loopback.
func runServedMix(ctx context.Context, e env) (*report, error) {
	rep := newReport()
	markAbsent(rep, "served-mix runs the Figure 4 queries at 1 MB; their 5 MB peaks are recorded on fig4-join and fig4-stream",
		peakMetric("q1"), peakMetric("q8"), peakMetric("q11"), peakMetric("q13"), peakMetric("q20"))
	markAbsent(rep, "served-mix answers requests from documents at rest: no stream hub",
		"stream.write_block_ms", "stream.first_result_ms", "stream.dropped_bytes", "stream.mb_per_s")

	s := &servedMix{}
	for _, n := range xmark.QueryNames {
		s.names = append(s.names, n)
		s.queries = append(s.queries, xmark.Queries[n])
	}
	for i, q := range xmark.FanoutQueries {
		s.names = append(s.names, fmt.Sprintf("fanout[%d]", i))
		s.queries = append(s.queries, q)
	}
	var docs []document
	for i := range servedDocs {
		doc, err := loadDocument(e.dir, servedMB, servedSeed(e.seed, i))
		if err != nil {
			return nil, err
		}
		want, err := oracle(doc, s.queries)
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
		s.want = append(s.want, want)
	}
	nproc := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	defer transport.CloseIdleConnections()
	s.client = &http.Client{Transport: transport}

	// The tier runs in a child process; it measures its own set-up.
	t, err := startTierProc(e)
	if err != nil {
		return nil, err
	}
	defer t.close()
	rep.e2e["setup_s"] = metric{t.hello.SetupSeconds, "s"}

	// Warm-up: a sweep through the router fills the compiled-query
	// caches, checks every pair against the oracle, and records the
	// per-pair peaks.
	peakTotal := s.sweep(ctx, rep, t.hello.Base)
	rep.layer["engine.peak_buffer_bytes"] = metric{float64(peakTotal), "B"}

	rng := rand.New(rand.NewSource(e.seed))
	record := func(ol openLoop) {
		for _, r := range ol.results {
			rep.op(r.err)
		}
		if late := quantile(ol.late, 0.99); late > genLateLimit {
			rep.problem("load generator fell behind its schedule: p99 lateness %v > %v; latencies not valid", late, genLateLimit)
		}
	}
	settle()
	if !e.trace {
		ol := s.runOpenLoop(ctx, nil, t.hello.Base, e.seconds, rng)
		record(ol)
		rep.e2e["p50_ms"] = metric{ms(median(ol.latency)), "ms"}
		// Memory pass in the tier: every (document, query) pair in turn,
		// memoryPasses times.
		peak, err := t.peakHeap(func() {
			for range memoryPasses {
				s.sweep(ctx, rep, t.hello.Base)
			}
		})
		if err != nil {
			return nil, err
		}
		rep.e2e["peak_heap_bytes"] = metric{float64(peak), "B"}
		fmt.Printf("served: %d requests, p50 %.2f ms, p99 %.2f ms; generator late p50 %.3f ms, p99 %.3f ms\n",
			len(ol.latency), ms(median(ol.latency)), ms(quantile(ol.latency, 0.99)), ms(median(ol.late)), ms(quantile(ol.late, 0.99)))
		return rep, nil
	}
	return rep, servedLayers(ctx, e, rep, s, t, docs, rng, record)
}

// servedLayers is served-mix's traced run: the untraced open loop for the
// served.* and executor metrics, a traced open loop for the overhead, the
// router's added latency, and the stage ladder of the mix as one shared
// scan.
func servedLayers(ctx context.Context, e env, rep *report, s *servedMix, t *tierProc, docs []document, rng *rand.Rand, record func(openLoop)) error {
	ol := s.runOpenLoop(ctx, nil, t.hello.Base, e.seconds, rng)
	record(ol)
	var ttfb []time.Duration
	var batchSum int64
	for _, r := range ol.results {
		ttfb = append(ttfb, r.ttfb)
		batchSum += r.batchSize
	}
	rep.layer["served.p99_ms"] = metric{ms(quantile(ol.latency, 0.99)), "ms"}
	rep.layer["served.requests"] = metric{float64(len(ol.latency)), "count"}
	rep.layer["served.gen_late_p50_ms"] = metric{ms(median(ol.late)), "ms"}
	rep.layer["served.gen_late_p99_ms"] = metric{ms(quantile(ol.late, 0.99)), "ms"}
	rep.layer["executor.first_byte_ms"] = metric{ms(median(ttfb)), "ms"}
	rep.layer["executor.batch_size"] = metric{float64(batchSum) / float64(len(ol.results)), "count"}

	tr := newTracer()
	on := s.runOpenLoop(ctx, tr, t.hello.Base, e.seconds/4, rng)
	record(on)
	rep.layer["trace.overhead_ms"] = metric{ms(median(on.latency) - median(ol.latency)), "ms"}

	var st tierStats
	if err := t.call("stats", &st); err != nil {
		return err
	}
	rep.layer["catalog.cache_hit_ratio"] = metric{float64(st.Hits) / float64(max(st.Lookups, 1)), "ratio"}
	rep.layer["catalog.admission_waiting"] = metric{float64(st.MaxWaiting), "count"}

	// Router cost: the same request sequence sent through the router and
	// straight to the owning worker, in alternating order.
	var diffs []time.Duration
	deadline := time.Now().Add(e.seconds / 8)
	for k := 0; len(diffs) == 0 || time.Now().Before(deadline); k++ {
		r := servedReq{doc: k % len(servedDocs), query: (k / len(servedDocs)) % len(s.queries)}
		timeOne := func(base, name string) (time.Duration, error) {
			sp := tr.begin(name, 0)
			start := time.Now()
			res := s.send(ctx, base, r)
			d := time.Since(start)
			tr.end(sp)
			rep.op(res.err)
			return d, res.err
		}
		var via, direct time.Duration
		var err1, err2 error
		if k%2 == 0 {
			via, err1 = timeOne(t.hello.Base, "http via router")
			direct, err2 = timeOne(t.hello.Workers[r.doc], "http direct to worker")
		} else {
			direct, err2 = timeOne(t.hello.Workers[r.doc], "http direct to worker")
			via, err1 = timeOne(t.hello.Base, "http via router")
		}
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		diffs = append(diffs, via-direct)
	}
	rep.layer["shard.router_ms"] = metric{ms(median(diffs)), "ms"}

	// The mix's queries as one shared scan of x0.
	plans := make([]*engine.Plan, len(s.queries))
	for i, q := range s.queries {
		fq, err := flux.Prepare(q, xmark.DTD)
		if err != nil {
			return err
		}
		plans[i] = fq.Plan()
	}
	b := &batch{doc: docs[0], plans: plans, names: s.names, want: s.want[0], mach: automLayer(rep, plans)}
	par := b.parallel(ctx, rep)
	stages, err := runLadder(rep, tr, e.seconds/8, b.ladder(ctx, rep), par)
	if err != nil {
		return err
	}
	muxSpeedup(rep, stages[3], par)
	if err := prepareTimes(rep, s.queries, func(q string) error {
		_, err := flux.Prepare(q, xmark.DTD)
		return err
	}); err != nil {
		return err
	}
	return finishTrace(rep, tr, e, "served-mix")
}
