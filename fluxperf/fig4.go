package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"flux"
	"flux/internal/engine"
	"flux/internal/sax"
	"flux/internal/xmark"
)

// fig4MB is the document size of the Figure 4 workloads.
const fig4MB = 5

// zeroBufferMB is the second document size at which fig4-stream checks
// that q1 and q13 buffer nothing.
const zeroBufferMB = 1

// runFig4Join is the paper's experiment restricted to its joins: each
// round runs q8 then q11, each alone, over a 5 MB document.
func runFig4Join(ctx context.Context, e env) (*report, error) {
	rep := newReport()
	markAbsent(rep, "fig4-join runs q8 and q11; the streaming queries' peaks are recorded on fig4-stream",
		peakMetric("q1"), peakMetric("q13"), peakMetric("q20"))
	return rep, runFig4(ctx, e, rep, "fig4-join", []string{"q8", "q11"}, false)
}

// runFig4Stream is the paper's experiment restricted to its streaming
// queries: each round runs q1, q13 and q20, each alone, over a 5 MB
// document. It also holds the paper's bounded-buffer claim to a check:
// q1 and q13 must buffer nothing at 1 MB and at 5 MB.
func runFig4Stream(ctx context.Context, e env) (*report, error) {
	rep := newReport()
	markAbsent(rep, "fig4-stream runs q1, q13 and q20; the joins' peaks are recorded on fig4-join",
		peakMetric("q8"), peakMetric("q11"))
	return rep, runFig4(ctx, e, rep, "fig4-stream", []string{"q1", "q13", "q20"}, true)
}

// fig4Query is one prepared Figure 4 query with its oracle digest.
type fig4Query struct {
	name string
	q    *flux.Query
	want digest
}

func runFig4(ctx context.Context, e env, rep *report, workload string, names []string, zeroCheck bool) error {
	markAbsent(rep, "the Figure 4 queries each run alone through engine.RunSelectiveContext: no merged automaton",
		"autom.self_ms", "autom.build_ms", "autom.states", "autom.delivery_ratio")
	markAbsent(rep, "the Figure 4 queries each run alone: no shared scan, so no mux",
		"mux.seq_ms", "mux.parallel_ms", "mux.parallel_speedup", "mux.events")
	markAbsent(rep, "Figure 4 calls Query.RunContext directly: no executor, catalog, router or stream hub",
		"executor.first_byte_ms", "executor.batch_size", "catalog.cache_hit_ratio", "catalog.admission_waiting",
		"shard.router_ms", "stream.write_block_ms", "stream.first_result_ms", "stream.dropped_bytes", "stream.mb_per_s",
		"served.p99_ms", "served.requests", "served.gen_late_p50_ms", "served.gen_late_p99_ms")

	doc, err := loadDocument(e.dir, fig4MB, e.seed)
	if err != nil {
		return err
	}
	texts := make([]string, len(names))
	for i, n := range names {
		texts[i] = xmark.Queries[n]
	}
	want, err := oracle(doc, texts)
	if err != nil {
		return err
	}

	// Set-up: compiling the queries is all a Figure 4 caller does before
	// running them.
	qs := make([]fig4Query, len(names))
	setup, err := timeSetup(func() (func(), error) {
		for i, n := range names {
			q, err := flux.Prepare(texts[i], xmark.DTD)
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", n, err)
			}
			qs[i] = fig4Query{name: n, q: q, want: want[i]}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	rep.e2e["setup_s"] = metric{setup.Seconds(), "s"}

	if zeroCheck {
		if err := checkZeroBuffer(ctx, e, rep, qs); err != nil {
			return err
		}
	}

	// peaks holds each query's peak from its first run; later runs must
	// agree, since buffering is deterministic.
	peaks := make([]int64, len(qs))
	runs := 0
	round := func(tr *tracer, parent int) {
		for i, fq := range qs {
			w := newSumWriter()
			sp := tr.begin("flux.Query.RunContext "+fq.name, parent)
			var st flux.Stats
			err := doc.read(func(r io.Reader) (err error) {
				st, err = fq.q.RunContext(ctx, r, w, flux.Options{})
				return err
			})
			tr.end(sp)
			if err == nil {
				err = check(fq.name, w.sum(), fq.want)
			}
			if err == nil && runs > 0 && st.PeakBufferBytes != peaks[i] {
				err = fmt.Errorf("%s: peak buffer %d bytes, earlier run %d", fq.name, st.PeakBufferBytes, peaks[i])
			}
			if runs == 0 {
				peaks[i] = st.PeakBufferBytes
			}
			rep.op(err)
		}
		runs++
	}
	loop := func(tr *tracer, d time.Duration) ([]time.Duration, error) {
		return loopFor(d, func() error {
			sp := tr.begin("round", 0)
			round(tr, sp)
			tr.end(sp)
			return nil
		})
	}

	if !e.trace {
		if err := measure(rep, e.seconds, loop); err != nil {
			return err
		}
	} else {
		tr := newTracer()
		if _, err := traced(rep, tr, e.seconds, loop); err != nil {
			return err
		}
		if err := fig4Layers(ctx, e, rep, tr, doc, qs); err != nil {
			return err
		}
		if err := prepareTimes(rep, texts, func(t string) error {
			_, err := flux.Prepare(t, xmark.DTD)
			return err
		}); err != nil {
			return err
		}
		if err := finishTrace(rep, tr, e, workload); err != nil {
			return err
		}
	}
	var total int64
	for i, fq := range qs {
		if zeroCheck && (fq.name == "q1" || fq.name == "q13") && peaks[i] != 0 {
			rep.problem("%s buffers %d bytes at %d MB; the schedule should buffer nothing", fq.name, peaks[i], fig4MB)
		}
		total += peaks[i]
		rep.layer[peakMetric(fq.name)] = metric{float64(peaks[i]), "B"}
	}
	rep.layer["engine.peak_buffer_bytes"] = metric{float64(total), "B"}
	return nil
}

// checkZeroBuffer runs q1, q13 and q20 untimed over a 1 MB document,
// compares them with the oracle, and fails the run unless q1 and q13
// buffer nothing. The 5 MB half of the claim is checked on the timed
// runs' peaks.
func checkZeroBuffer(ctx context.Context, e env, rep *report, qs []fig4Query) error {
	small, err := loadDocument(e.dir, zeroBufferMB, e.seed)
	if err != nil {
		return err
	}
	texts := make([]string, len(qs))
	for i, fq := range qs {
		texts[i] = xmark.Queries[fq.name]
	}
	want, err := oracle(small, texts)
	if err != nil {
		return err
	}
	for i, fq := range qs {
		w := newSumWriter()
		var st flux.Stats
		err := small.read(func(r io.Reader) (err error) {
			st, err = fq.q.RunContext(ctx, r, w, flux.Options{})
			return err
		})
		if err == nil {
			err = check(fq.name+" at 1 MB", w.sum(), want[i])
		}
		rep.op(err)
		if err == nil && (fq.name == "q1" || fq.name == "q13") && st.PeakBufferBytes != 0 {
			rep.problem("%s buffers %d bytes at %d MB; the schedule should buffer nothing", fq.name, st.PeakBufferBytes, zeroBufferMB)
		}
	}
	return nil
}

// fig4Layers runs the stage ladder for the Figure 4 queries, each query
// alone as the timed runs do, summing the stages over the queries.
func fig4Layers(ctx context.Context, e env, rep *report, tr *tracer, doc document, qs []fig4Query) error {
	var tokens, skips, engTokens, out int64
	scan := func(tr *tracer, parent int) error {
		tokens, skips = 0, 0
		for _, fq := range qs {
			opt := scanOpt
			opt.Prune = fq.q.Plan().Prune()
			h := &countHandler{}
			sp := tr.begin("sax.ScanBatchedContext "+fq.name, parent)
			err := doc.read(func(r io.Reader) error { return sax.ScanBatchedContext(ctx, r, h, opt) })
			tr.end(sp)
			if err != nil {
				return err
			}
			tokens += h.tokens
			skips += h.skips
		}
		return nil
	}
	run := func(hashed bool) func(tr *tracer, parent int) error {
		return func(tr *tracer, parent int) error {
			engTokens, out = 0, 0
			for _, fq := range qs {
				var w io.Writer = io.Discard
				sw := newSumWriter()
				if hashed {
					w = sw
				}
				sp := tr.begin("engine.RunSelectiveContext "+fq.name, parent)
				var st engine.Stats
				err := doc.read(func(r io.Reader) (err error) {
					st, err = engine.RunSelectiveContext(ctx, fq.q.Plan(), r, w, scanOpt)
					return err
				})
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("%s: %w", fq.name, err)
				}
				if hashed {
					if err := check(fq.name, sw.sum(), fq.want); err != nil {
						return err
					}
				}
				engTokens += st.Tokens
				out += st.OutputBytes
			}
			return nil
		}
	}
	if _, err := runLadder(rep, tr, e.seconds/4, ladder{scan, nil, run(false), run(true)}); err != nil {
		return err
	}
	rep.layer["sax.tokens"] = metric{float64(tokens), "count"}
	rep.layer["sax.skip_elements"] = metric{float64(skips), "count"}
	rep.layer["engine.tokens"] = metric{float64(engTokens), "count"}
	rep.layer["output.bytes"] = metric{float64(out), "B"}
	return nil
}
