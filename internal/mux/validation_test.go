package mux_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"flux/internal/core"
	"flux/internal/dtd"
	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
)

// isoDTD requires a header <h> before the <a> and <b> runs, so a stream
// suffix that starts after the header is invalid for the root content
// model, and a second header after a <b> is invalid for the full
// document.
const isoDTD = `
<!ELEMENT r (h, a*, b*)>
<!ELEMENT h (#PCDATA)>
<!ELEMENT a (x, y?)>
<!ELEMENT b (x)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
`

// isoPlans compiles the two isolation plans against one parse of
// isoDTD: A reads only the <b> subtrees, B only the <a> subtrees.
func isoPlans(t *testing.T) (a, b *engine.Plan) {
	t.Helper()
	schema := dtd.MustParse(isoDTD)
	prep := func(q string) *engine.Plan {
		f, err := core.ParseFlux(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := engine.Compile(schema, f)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a = prep(`{ ps $ROOT: on r as $r return { ps $r: on b as $b return { $b } } }`)
	b = prep(`{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`)
	return a, b
}

// soloRun runs one plan alone with signature pruning, the single-query
// counterpart of a selective shared scan.
func soloRun(t *testing.T, p *engine.Plan, doc string) (string, error) {
	t.Helper()
	var out strings.Builder
	_, err := engine.RunSelective(p, strings.NewReader(doc), &out, scanOpt)
	return out.String(), err
}

// isoDoc is invalid inside its last <a>: <y> may only follow <x>. The
// valid <a> run before it makes the scan span token batches large
// enough for the parallel pipeline's worker path.
func isoDoc() string {
	var sb strings.Builder
	sb.WriteString("<r><h>t</h>")
	for i := 0; i < 60; i++ {
		sb.WriteString("<a><x>1</x></a>")
	}
	sb.WriteString("<a><y>bad</y></a><b><x>3</x></b><b><x>4</x></b></r>")
	return sb.String()
}

// TestSharedValidationIsolation: a shared scan validates the document
// once per schema, yet a validation error fails exactly the plans that
// read the invalid subtree, with the error text of their solo runs; a
// plan that skips the subtree keeps its solo-run output. The same holds
// under the parallel pipeline and in streaming mode, where a mid-stream
// joiner validates the root content model against the suffix it sees.
func TestSharedValidationIsolation(t *testing.T) {
	planA, planB := isoPlans(t)
	doc := isoDoc()
	wantA, errA := soloRun(t, planA, doc)
	if errA != nil {
		t.Fatalf("plan A solo: %v", errA)
	}
	_, errB := soloRun(t, planB, doc)
	if errB == nil {
		t.Fatal("plan B solo: want a validation error")
	}

	check := func(mode string, res []mux.Result, outA string) {
		t.Helper()
		if res[0].Err != nil {
			t.Errorf("%s: plan A failed: %v", mode, res[0].Err)
		} else if outA != wantA {
			t.Errorf("%s: plan A output %q, solo %q", mode, outA, wantA)
		}
		if res[1].Err == nil || res[1].Err.Error() != errB.Error() {
			t.Errorf("%s: plan B error %v, solo %v", mode, res[1].Err, errB)
		}
	}

	for _, parallel := range []bool{false, true} {
		m := mux.NewSelective()
		m.SetParallel(parallel)
		var outA strings.Builder
		m.Add(planA, &outA)
		m.Add(planB, io.Discard)
		res, err := m.Run(nil, strings.NewReader(doc), scanOpt)
		if err != nil {
			t.Fatalf("parallel=%v: Run: %v", parallel, err)
		}
		mode := "sequential"
		if parallel {
			mode = "parallel"
		}
		check(mode, res, outA.String())
	}

	// Streaming: A and B stand from the start; C joins after the header.
	// C's root content model sees only the suffix, which lacks the
	// required <h>, so C fails exactly as a solo run over the suffix.
	cut := strings.Index(doc, "</h>") + len("</h>")
	suffix := "<r>" + doc[cut:]
	_, errC := soloRun(t, planA, suffix)
	if errC == nil {
		t.Fatal("plan A solo over the suffix: want a root content-model error")
	}
	for _, parallel := range []bool{false, true} {
		m := mux.NewStreaming()
		m.SetParallel(parallel)
		var outA, outC strings.Builder
		m.Add(planA, &outA)
		m.Add(planB, io.Discard)
		res, slots := streamWithJoiners(t, m, doc, cut, []*engine.Plan{planA}, []io.Writer{&outC})
		check("stream", res, outA.String())
		if err := res[slots[0]].Err; err == nil || err.Error() != errC.Error() {
			t.Errorf("stream parallel=%v: joiner error %v, solo over suffix %v", parallel, err, errC)
		}
	}

	// The other direction: the full document breaks the root content
	// model (a second <h> after a <b>) before the joiners arrive, while
	// the suffix they see is valid. Standing plans fail with their solo
	// errors; every joiner succeeds with its solo output over the
	// suffix — whether it joins the standing plans' schema (and their
	// validator) or a schema new to the stream, whose validator starts
	// inside the root with no root state.
	const doc2 = `<r><h>t</h><b><x>1</x></b><h>u</h><b><x>3</x></b></r>`
	cut2 := strings.Index(doc2, "<h>u")
	suffix2 := "<r>" + doc2[cut2:]
	planA2, planB2 := isoPlans(t)
	standing := []*engine.Plan{planA, planB}
	joiners := []*engine.Plan{planA, planA2, planB2}
	for _, parallel := range []bool{false, true} {
		m := mux.NewStreaming()
		m.SetParallel(parallel)
		for _, p := range standing {
			m.Add(p, io.Discard)
		}
		outs := make([]strings.Builder, len(joiners))
		ws := make([]io.Writer, len(joiners))
		for i := range outs {
			ws[i] = &outs[i]
		}
		res, slots := streamWithJoiners(t, m, doc2, cut2, joiners, ws)
		for i, p := range standing {
			_, want := soloRun(t, p, doc2)
			if want == nil || res[i].Err == nil || res[i].Err.Error() != want.Error() {
				t.Errorf("doc2 parallel=%v: standing plan %d error %v, solo %v", parallel, i, res[i].Err, want)
			}
		}
		for i, p := range joiners {
			want, err := soloRun(t, p, suffix2)
			if err != nil {
				t.Fatalf("joiner %d solo over the doc2 suffix: %v", i, err)
			}
			if got := res[slots[i]]; got.Err != nil {
				t.Errorf("doc2 parallel=%v: joiner %d failed: %v", parallel, i, got.Err)
			} else if outs[i].String() != want {
				t.Errorf("doc2 parallel=%v: joiner %d output %q, solo %q", parallel, i, outs[i].String(), want)
			}
		}
	}
}

// streamWithJoiners streams doc through m, attaching plans[i] (writing
// to ws[i]) as new subscriptions once every event before byte offset
// cut has been routed, and returns EndStream's results with the
// joiners' slots. Pushing one more byte after the prefix guarantees the
// prefix's events were delivered: with eager flushing, the scanner hands
// parsed events to the mux before it reads the next chunk.
func streamWithJoiners(t *testing.T, m *mux.Mux, doc string, cut int, plans []*engine.Plan, ws []io.Writer) ([]mux.Result, []int) {
	t.Helper()
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	if _, err := cs.Write([]byte(doc[:cut])); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Write([]byte(doc[cut : cut+1])); err != nil {
		t.Fatal(err)
	}
	slots := make([]chan int, len(plans))
	for i, p := range plans {
		slots[i] = make(chan int, 1)
		if err := m.AttachStream(nil, p, ws[i], func(slot int, err error) {
			if err != nil {
				t.Errorf("joiner %d rejected: %v", i, err)
			}
			slots[i] <- slot
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.Write([]byte(doc[cut+1:])); err != nil {
		t.Fatal(err)
	}
	res := m.EndStream(cs.Close())
	out := make([]int, len(plans))
	for i, c := range slots {
		if out[i] = <-c; out[i] < 0 || out[i] >= len(res) {
			t.Fatalf("joiner %d slot %d of %d", i, out[i], len(res))
		}
	}
	return res, out
}

// TestSharedValidationErrorText: every kind of validation error — an
// element the content model rejects, one the DTD references but never
// declares, incomplete content — reaches a shared-scan plan with the
// exact text of the plan's solo run, sequentially, in parallel and
// streamed.
func TestSharedValidationErrorText(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT r (a*, b*)>
<!ELEMENT a (x, u?)>
<!ELEMENT b (x, x)>
<!ELEMENT x (#PCDATA)>
`)
	prep := func(q string) *engine.Plan {
		f, err := core.ParseFlux(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := engine.Compile(schema, f)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plans := []*engine.Plan{
		prep(`{ ps $ROOT: on r as $r return { $r } }`),
		prep(`{ ps $ROOT: on r as $r return { ps $r: on b as $b return { $b } } }`),
		prep(`{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`),
	}
	docs := map[string]string{
		"not allowed": `<r><a><x>1</x></a><b><x>2</x><x>3</x></b><a><x>4</x></a></r>`,
		"undeclared":  `<r><a><x>1</x><u>?</u></a><b><x>2</x><x>3</x></b></r>`,
		"incomplete":  `<r><a><x>1</x></a><b><x>2</x></b></r>`,
	}
	for what, doc := range docs {
		solo := make([]error, len(plans))
		for i, p := range plans {
			_, solo[i] = soloRun(t, p, doc)
		}
		if solo[0] == nil {
			t.Fatalf("%s: the reading plan must fail alone", what)
		}
		for _, mode := range []string{"sequential", "parallel", "stream"} {
			var m *mux.Mux
			if mode == "stream" {
				m = mux.NewStreaming()
			} else {
				m = mux.NewSelective()
			}
			m.SetParallel(mode != "sequential")
			for _, p := range plans {
				m.Add(p, io.Discard)
			}
			var res []mux.Result
			if mode == "stream" {
				res = feedStream(t, m, doc, 7)
			} else {
				res, _ = m.Run(nil, strings.NewReader(doc), scanOpt)
			}
			for i := range plans {
				if fmt.Sprint(res[i].Err) != fmt.Sprint(solo[i]) {
					t.Errorf("%s, %s, plan %d: error %v, solo %v", what, mode, i, res[i].Err, solo[i])
				}
			}
		}
	}
}
