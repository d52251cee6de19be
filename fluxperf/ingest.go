package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"flux"
	"flux/internal/engine"
	"flux/internal/sax"
	"flux/internal/stream"
	"flux/internal/xmark"
)

// ingestChunk is the size of each Ingest.Write in ingest-replay.
const ingestChunk = 32 << 10

// ingestDoc is the stream-backed document name the hub serves.
const ingestDoc = "s0"

// replay is one ingest-replay set-up: a catalog with the stream-backed
// document, a hub over it, and the standing queries with their oracle.
type replay struct {
	doc   document
	hub   *stream.Hub
	cat   *flux.Catalog
	names []string
	texts []string
	want  []digest
}

func newReplay(r *replay, opt stream.Options) (*replay, error) {
	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.AddStream(ingestDoc, xmark.DTD); err != nil {
		return nil, err
	}
	for _, q := range r.texts {
		if _, err := cat.Prepare(ingestDoc, q); err != nil {
			return nil, err
		}
	}
	return &replay{doc: r.doc, hub: stream.NewHub(cat, opt), cat: cat, names: r.names, texts: r.texts, want: r.want}, nil
}

// roundStats is what one replay round measured.
type roundStats struct {
	writeBlock   time.Duration   // summed time the producer spent in Ingest.Write
	firstResults []time.Duration // per subscription, Subscribe to first result byte
	dropped      int64
	peaks        []int64 // per subscription
	tokens       int64
	out          int64
	events       int64
	waiting      int64 // admission waiters once the subscriptions are open
}

// round opens one PolicyBlock subscription per query, writes the
// document through Ingest.Write in ingestChunk chunks as fast as the scan
// accepts them, and waits until every subscription is done. With hashed
// set, each subscription's output is checked against the oracle and
// counted as an operation in rep.
func (r *replay) round(ctx context.Context, rep *report, tr *tracer, parent int, hashed bool) (roundStats, error) {
	var rs roundStats
	subs := make([]*stream.Subscription, len(r.texts))
	sums := make([]*sumWriter, len(r.texts))
	for i, q := range r.texts {
		var w io.Writer = io.Discard
		if hashed {
			sums[i] = newSumWriter()
			w = sums[i]
		}
		sp := tr.begin("stream.Hub.Subscribe", parent)
		sub, err := r.hub.Subscribe(ctx, ingestDoc, q, w, stream.PolicyBlock)
		tr.end(sp)
		if err != nil {
			return rs, fmt.Errorf("subscribe %s: %w", r.names[i], err)
		}
		subs[i] = sub
	}
	rs.waiting = r.cat.AdmissionStats().Waiting
	ing, err := r.hub.StartIngest(ctx, ingestDoc)
	if err != nil {
		return rs, err
	}
	f, err := os.Open(r.doc.path)
	if err != nil {
		ing.Abort(err)
		return rs, err
	}
	defer f.Close()
	buf := make([]byte, ingestChunk)
	for {
		n, rerr := io.ReadFull(f, buf)
		if n > 0 {
			sp := tr.begin("stream.Ingest.Write", parent)
			start := time.Now()
			_, werr := ing.Write(buf[:n])
			rs.writeBlock += time.Since(start)
			tr.end(sp)
			if werr != nil {
				ing.Abort(werr)
				return rs, werr
			}
		}
		if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			break
		}
		if rerr != nil {
			ing.Abort(rerr)
			return rs, rerr
		}
	}
	closeErr := ing.Close()
	rs.events = ing.Events() // the scan has ended: Close waited for it
	for i, sub := range subs {
		<-sub.Done()
		err := errors.Join(closeErr, sub.Err())
		st := sub.Stats()
		if err == nil && hashed {
			err = check(r.names[i], sums[i].sum(), r.want[i])
		}
		if hashed {
			rep.op(err)
		} else if err != nil {
			return rs, err
		}
		if st.FirstResult > 0 {
			rs.firstResults = append(rs.firstResults, st.FirstResult)
		}
		rs.dropped += st.DroppedBytes
		rs.peaks = append(rs.peaks, st.PeakBufferBytes)
		rs.tokens += st.Tokens
		rs.out += st.OutputBytes
	}
	return rs, nil
}

// runIngestReplay replays a 5 MB document through a stream.Hub to nine
// standing subscriptions (q1, q13, q20 and the six fan-out queries),
// round after round.
func runIngestReplay(ctx context.Context, e env) (*report, error) {
	rep := newReport()
	markAbsent(rep, "ingest-replay subscribes q1, q13, q20 and the fan-out queries; the joins run on fig4-join",
		peakMetric("q8"), peakMetric("q11"))
	markAbsent(rep, "ingest-replay feeds a stream hub in process: no executor, router or served requests",
		"executor.first_byte_ms", "executor.batch_size", "shard.router_ms",
		"served.p99_ms", "served.requests", "served.gen_late_p50_ms", "served.gen_late_p99_ms")

	doc, err := loadDocument(e.dir, fig4MB, e.seed)
	if err != nil {
		return nil, err
	}
	base := &replay{doc: doc}
	for _, n := range []string{"q1", "q13", "q20"} {
		base.names = append(base.names, n)
		base.texts = append(base.texts, xmark.Queries[n])
	}
	for i, q := range xmark.FanoutQueries {
		base.names = append(base.names, fmt.Sprintf("fanout[%d]", i))
		base.texts = append(base.texts, q)
	}
	if base.want, err = oracle(doc, base.texts); err != nil {
		return nil, err
	}

	// Set-up: a catalog with the stream-backed document and the standing
	// queries compiled, and a hub over it.
	setup, err := timeSetup(func() (func(), error) {
		r, err := newReplay(base, stream.Options{})
		if err != nil {
			return nil, err
		}
		return r.hub.Close, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = metric{setup.Seconds(), "s"}
	r, err := newReplay(base, stream.Options{})
	if err != nil {
		return nil, err
	}
	defer r.hub.Close()

	var stats []roundStats
	loop := func(tr *tracer, d time.Duration) ([]time.Duration, error) {
		return loopFor(d, func() error {
			sp := tr.begin("replay round", 0)
			rs, err := r.round(ctx, rep, tr, sp, true)
			tr.end(sp)
			stats = append(stats, rs)
			return err
		})
	}
	// The first round is checked but not timed.
	if _, err := loop(nil, 0); err != nil {
		return nil, err
	}
	first := stats[0]
	for i, n := range base.names {
		if n == "q1" || n == "q13" || n == "q20" {
			rep.layer[peakMetric(n)] = metric{float64(first.peaks[i]), "B"}
		}
	}
	var peakTotal int64
	for _, p := range first.peaks {
		peakTotal += p
	}
	rep.layer["engine.peak_buffer_bytes"] = metric{float64(peakTotal), "B"}

	if !e.trace {
		return rep, measure(rep, e.seconds, loop)
	}

	tr := newTracer()
	stats = stats[:0]
	rounds, err := traced(rep, tr, e.seconds, loop)
	if err != nil {
		return nil, err
	}
	var blocks, firsts []time.Duration
	var dropped, waiting int64
	for _, rs := range stats[:len(rounds)] {
		blocks = append(blocks, rs.writeBlock)
		firsts = append(firsts, rs.firstResults...)
		dropped += rs.dropped
		waiting = max(waiting, rs.waiting)
	}
	rep.layer["stream.mb_per_s"] = metric{doc.mb() / median(rounds).Seconds(), "MB/s"}
	rep.layer["stream.write_block_ms"] = metric{ms(median(blocks)), "ms"}
	rep.layer["stream.first_result_ms"] = metric{ms(median(firsts)), "ms"}
	rep.layer["stream.dropped_bytes"] = metric{float64(dropped), "B"}
	cs := r.cat.CacheStats()
	rep.layer["catalog.cache_hit_ratio"] = metric{float64(cs.Hits) / float64(max(cs.Hits+cs.Misses, 1)), "ratio"}
	rep.layer["catalog.admission_waiting"] = metric{float64(waiting), "count"}

	if err := ingestLayers(ctx, e, rep, tr, r, base); err != nil {
		return nil, err
	}
	return rep, finishTrace(rep, tr, e, "ingest-replay")
}

// ingestLayers runs the push-mode stage ladder: the chunked scan into a
// no-op handler, plus the merged-automaton matcher, then full replay
// rounds with discarding and with hashing subscribers. A second hub with
// ParallelGroups gives mux.parallel_ms against stage 3's mux.seq_ms.
func ingestLayers(ctx context.Context, e env, rep *report, tr *tracer, r, base *replay) error {
	plans := make([]*engine.Plan, len(base.texts))
	for i, q := range base.texts {
		fq, err := r.cat.Prepare(ingestDoc, q)
		if err != nil {
			return err
		}
		plans[i] = fq.Plan()
	}
	mach := automLayer(rep, plans)
	push := func(h sax.BatchHandler, tr *tracer, parent int) error {
		sp := tr.begin("sax.StartChunked", parent)
		defer tr.end(sp)
		cs := sax.StartChunked(ctx, h, scanOpt)
		f, err := os.Open(r.doc.path)
		if err != nil {
			cs.Abort(err)
			return err
		}
		defer f.Close()
		if _, err := io.CopyBuffer(cs, f, make([]byte, ingestChunk)); err != nil {
			cs.Abort(err)
			return err
		}
		return cs.Close()
	}
	full := func(rp *replay, hashed bool) func(tr *tracer, parent int) error {
		return func(tr *tracer, parent int) error {
			rs, err := rp.round(ctx, rep, tr, parent, hashed)
			if err != nil {
				return err
			}
			rep.layer["engine.tokens"] = metric{float64(rs.tokens), "count"}
			rep.layer["output.bytes"] = metric{float64(rs.out), "B"}
			rep.layer["mux.events"] = metric{float64(rs.events), "count"}
			return nil
		}
	}
	par, err := newReplay(base, stream.Options{ParallelGroups: true})
	if err != nil {
		return err
	}
	defer par.hub.Close()
	parStage := &extraStage{name: "stream parallel", fn: full(par, true)}
	l := ladder{
		func(tr *tracer, parent int) error {
			h := &countHandler{}
			err := push(h, tr, parent)
			rep.layer["sax.tokens"] = metric{float64(h.tokens), "count"}
			rep.layer["sax.skip_elements"] = metric{float64(h.skips), "count"}
			return err
		},
		func(tr *tracer, parent int) error {
			h := &matchHandler{t: mach.NewMatcher()}
			err := push(h, tr, parent)
			rep.layer["autom.delivery_ratio"] = metric{float64(h.deliveries) / float64(max(h.events, 1)*int64(mach.NumGroups())), "ratio"}
			return err
		},
		full(r, false),
		full(r, true),
	}
	stages, err := runLadder(rep, tr, e.seconds/4, l, parStage)
	if err != nil {
		return err
	}
	muxSpeedup(rep, stages[3], parStage)
	return prepareTimes(rep, base.texts, func(q string) error {
		_, err := flux.Prepare(q, xmark.DTD)
		return err
	})
}
