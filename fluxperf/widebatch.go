package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"flux"
	"flux/internal/engine"
	"flux/internal/xmark"
)

// wideQueries is the size of the wide-batch query set.
const wideQueries = 64

// runWideBatch submits the 64 shared-prefix queries concurrently as one
// batch to a 5 MB document through flux.Executor (MaxBatch 64, other
// options at fluxd defaults), round after round.
func runWideBatch(ctx context.Context, e env) (*report, error) {
	rep := newReport()
	markAbsent(rep, "wide-batch runs the shared-prefix queries, none of the Figure 4 queries",
		peakMetric("q1"), peakMetric("q8"), peakMetric("q11"), peakMetric("q13"), peakMetric("q20"))
	markAbsent(rep, "wide-batch calls the executor in process: no router or stream hub",
		"shard.router_ms", "stream.write_block_ms", "stream.first_result_ms", "stream.dropped_bytes", "stream.mb_per_s",
		"served.p99_ms", "served.requests", "served.gen_late_p50_ms", "served.gen_late_p99_ms")

	doc, err := loadDocument(e.dir, fig4MB, e.seed)
	if err != nil {
		return nil, err
	}
	queries := xmark.SharedPrefixQueries(wideQueries)
	names := make([]string, len(queries))
	for i := range queries {
		names[i] = fmt.Sprintf("shared-prefix[%d]", i)
	}
	want, err := oracle(doc, queries)
	if err != nil {
		return nil, err
	}

	// Set-up: a catalog holding the document, an executor over it, and
	// the compiled-query cache filled with the batch's queries.
	var cat *flux.Catalog
	var ex *flux.Executor
	setup, err := timeSetup(func() (func(), error) {
		cat = flux.NewCatalog(flux.CatalogOptions{})
		if err := cat.Add("doc", doc.path, xmark.DTD); err != nil {
			return nil, err
		}
		var err error
		if ex, err = flux.NewExecutor(cat, flux.ExecutorOptions{MaxBatch: wideQueries}); err != nil {
			return nil, err
		}
		for _, q := range queries {
			if _, err := cat.Prepare("doc", q); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = metric{setup.Seconds(), "s"}

	var firstBytes []time.Duration
	var batchSizes []int64
	var waiting int64
	peaks := make([]int64, len(queries))
	batches := 0
	runBatch := func(tr *tracer, parent int) {
		results := make([]flux.ExecResult, len(queries))
		errs := make([]error, len(queries))
		sums := make([]*sumWriter, len(queries))
		var wg sync.WaitGroup
		start := time.Now()
		for i, q := range queries {
			sums[i] = newSumWriter()
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := tr.begin("flux.Executor.ExecuteContext", parent)
				results[i], errs[i] = ex.ExecuteContext(ctx, "doc", q, sums[i])
				tr.end(sp)
			}()
		}
		waiting = max(waiting, cat.AdmissionStats().Waiting)
		wg.Wait()
		for i, err := range errs {
			if err == nil {
				err = check(names[i], sums[i].sum(), want[i])
			}
			st := results[i].Stats
			if err == nil && batches > 0 && st.PeakBufferBytes != peaks[i] {
				err = fmt.Errorf("%s: peak buffer %d bytes, earlier batch %d", names[i], st.PeakBufferBytes, peaks[i])
			}
			if batches == 0 {
				peaks[i] = st.PeakBufferBytes
			}
			if !sums[i].first.IsZero() {
				firstBytes = append(firstBytes, sums[i].first.Sub(start))
			}
			batchSizes = append(batchSizes, int64(results[i].BatchSize))
			rep.op(err)
		}
		batches++
	}
	loop := func(tr *tracer, d time.Duration) ([]time.Duration, error) {
		return loopFor(d, func() error {
			sp := tr.begin("batch", 0)
			runBatch(tr, sp)
			tr.end(sp)
			return nil
		})
	}

	// The first batch builds and caches the merged automaton; it is
	// checked but not timed.
	runBatch(nil, 0)
	if !e.trace {
		if err := measure(rep, e.seconds, loop); err != nil {
			return nil, err
		}
	} else {
		tr := newTracer()
		if _, err := traced(rep, tr, e.seconds, loop); err != nil {
			return nil, err
		}
		hits := cat.CacheStats()
		rep.layer["catalog.cache_hit_ratio"] = metric{float64(hits.Hits) / float64(max(hits.Hits+hits.Misses, 1)), "ratio"}
		rep.layer["catalog.admission_waiting"] = metric{float64(waiting), "count"}
		rep.layer["executor.first_byte_ms"] = metric{ms(median(firstBytes)), "ms"}
		rep.layer["executor.batch_size"] = metric{float64(median(batchSizes)), "count"}

		plans := make([]*engine.Plan, len(queries))
		for i, q := range queries {
			fq, err := cat.Prepare("doc", q)
			if err != nil {
				return nil, err
			}
			plans[i] = fq.Plan()
		}
		b := &batch{doc: doc, plans: plans, names: names, want: want, mach: automLayer(rep, plans)}
		par := b.parallel(ctx, rep)
		stages, err := runLadder(rep, tr, e.seconds/4, b.ladder(ctx, rep), par)
		if err != nil {
			return nil, err
		}
		muxSpeedup(rep, stages[3], par)
		if err := prepareTimes(rep, queries, func(q string) error {
			_, err := flux.Prepare(q, xmark.DTD)
			return err
		}); err != nil {
			return nil, err
		}
		if err := finishTrace(rep, tr, e, "wide-batch"); err != nil {
			return nil, err
		}
	}
	var total int64
	for _, p := range peaks {
		total += p
	}
	rep.layer["engine.peak_buffer_bytes"] = metric{float64(total), "B"}
	return rep, nil
}
