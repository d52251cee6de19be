package flux

// Differential fuzzing: randomly generated XQuery⁻ queries (schema-aware,
// always closed) run over randomly generated valid documents through the
// FluX streaming engine and both in-memory baselines; all three must
// produce byte-identical output. The naive DOM interpreter is the
// semantics oracle.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flux/internal/dtd"
	"flux/internal/xq"
)

// fuzzSchemas: different ordering regimes to exercise both streaming and
// buffering schedules.
var fuzzSchemas = []string{
	// no order constraints at all
	`
<!ELEMENT r (a|b|c)*>
<!ELEMENT a (d|e)*>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (d*,e*)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
`,
	// fully ordered
	`
<!ELEMENT r (a*,b*,c?)>
<!ELEMENT a (d,e?)>
<!ELEMENT b (d*)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
`,
	// mixed regimes and a singleton layer (exercises loop merging)
	`
<!ELEMENT r (hdr,grp*)>
<!ELEMENT hdr (k,v)>
<!ELEMENT grp (k,(x|y)*,v?)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT v (#PCDATA)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
`,
	// deep nesting with optional layers
	`
<!ELEMENT r (s*)>
<!ELEMENT s (t?,u*)>
<!ELEMENT t (w,x?)>
<!ELEMENT u (w*)>
<!ELEMENT w (#PCDATA)>
<!ELEMENT x (#PCDATA)>
`,
	// recursive schema
	`
<!ELEMENT part (pid,part*)>
<!ELEMENT pid (#PCDATA)>
`,
}

// queryGen builds random closed queries whose paths follow the schema.
// With joins set it also generates path-vs-path comparisons and
// nested-loop joins; without, it draws exactly the random numbers it
// did before joins existed, so the seed corpora of the dispatch fuzz
// targets keep generating the same batches.
type queryGen struct {
	r      *rand.Rand
	schema *dtd.Schema
	nvars  int
	joins  bool
}

type binding struct {
	v    string
	elem string
}

func (g *queryGen) freshVar() string {
	g.nvars++
	return fmt.Sprintf("$v%d", g.nvars)
}

// childSteps returns the possible child element names of elem.
func (g *queryGen) childSteps(elem string) []string {
	p, ok := g.schema.Production(elem)
	if !ok {
		return nil
	}
	return p.Auto.Symbols()
}

func (g *queryGen) randPath(elem string, maxLen int) (xq.Path, string) {
	var path xq.Path
	cur := elem
	n := 1 + g.r.Intn(maxLen)
	for i := 0; i < n; i++ {
		steps := g.childSteps(cur)
		if len(steps) == 0 {
			break
		}
		s := steps[g.r.Intn(len(steps))]
		path = append(path, s)
		cur = s
	}
	if len(path) == 0 {
		return nil, ""
	}
	return path, cur
}

var fuzzConsts = []string{"alpha", "beta", "7", "1991", "42"}

// fuzzScales are the arithmetic multipliers of generated join operands.
var fuzzScales = []float64{2, 0.5, -1}

// joinTexts is a document vocabulary of values whose string and numeric
// orders disagree: numerically equal spellings, signed zero, NaN and
// infinity, mixed with words. Join conditions over it exercise every
// branch of the value comparison rules.
var joinTexts = []string{"7", "7.0", " 7 ", "007", "0", "-0", "NaN", "Inf", "alpha", "beta", "x y"}

var fuzzOps = []xq.RelOp{xq.OpEq, xq.OpNe, xq.OpLt, xq.OpGt, xq.OpLe, xq.OpGe}

func (g *queryGen) randCond(vars []binding) xq.Cond {
	switch g.r.Intn(6) {
	case 0:
		l := g.randCondAtom(vars)
		r := g.randCondAtom(vars)
		if g.r.Intn(2) == 0 {
			return &xq.And{L: l, R: r}
		}
		return &xq.Or{L: l, R: r}
	case 1:
		return &xq.Not{X: g.randCondAtom(vars)}
	default:
		return g.randCondAtom(vars)
	}
}

func (g *queryGen) randCondAtom(vars []binding) xq.Cond {
	i := g.r.Intn(len(vars))
	b := vars[i]
	path, _ := g.randPath(b.elem, 2)
	if path == nil {
		return xq.True{}
	}
	switch g.r.Intn(4) {
	case 0:
		return &xq.Exists{Var: b.v, Path: path}
	case 1:
		return &xq.Exists{Var: b.v, Path: path, Neg: true}
	case 2:
		if g.joins {
			others := append(vars[:i:i], vars[i+1:]...)
			if len(others) == 0 {
				others = vars
			}
			if c := g.randJoinAtom(others, xq.PathOp(b.v, path)); c != nil {
				return c
			}
		}
		fallthrough
	default:
		return &xq.Cmp{
			L:  xq.PathOp(b.v, path),
			R:  xq.ConstOp(fuzzConsts[g.r.Intn(len(fuzzConsts))]),
			Op: fuzzOps[g.r.Intn(len(fuzzOps))],
		}
	}
}

// randJoinAtom compares operand l with a path rooted at one of others
// (the innermost half the time), on either side, sometimes scaled. It
// returns nil when the chosen binding has no child paths.
func (g *queryGen) randJoinAtom(others []binding, l xq.Operand) xq.Cond {
	b := others[len(others)-1]
	if g.r.Intn(2) == 0 {
		b = others[g.r.Intn(len(others))]
	}
	path, _ := g.randPath(b.elem, 2)
	if path == nil {
		return nil
	}
	r := xq.PathOp(b.v, path)
	if g.r.Intn(3) == 0 {
		r.Scale = fuzzScales[g.r.Intn(len(fuzzScales))]
	}
	if g.r.Intn(2) == 0 {
		l, r = r, l
	}
	return &xq.Cmp{L: l, R: r, Op: fuzzOps[g.r.Intn(len(fuzzOps))]}
}

func (g *queryGen) build(vars []binding, depth int) xq.Expr {
	if depth <= 0 {
		return &xq.Str{S: "leaf"}
	}
	switch g.r.Intn(10) {
	case 0, 1:
		return &xq.Str{S: fmt.Sprintf("s%d", g.r.Intn(5))}
	case 2:
		// Whole-subtree output: rare, forces buffering.
		b := vars[g.r.Intn(len(vars))]
		return &xq.VarOut{Var: b.v}
	case 3:
		b := vars[g.r.Intn(len(vars))]
		if path, _ := g.randPath(b.elem, 2); path != nil {
			return &xq.PathOut{Var: b.v, Path: path}
		}
		return &xq.Str{S: "p"}
	case 4:
		return &xq.If{Cond: g.randCond(vars), Then: g.build(vars, depth-1)}
	case 5, 6:
		return xq.NewSeq(g.build(vars, depth-1), g.build(vars, depth-1))
	case 7, 8:
		if g.joins {
			return g.randJoin(vars, depth)
		}
		fallthrough
	default:
		b := vars[g.r.Intn(len(vars))]
		path, elem := g.randPath(b.elem, 2)
		if path == nil {
			return &xq.Str{S: "f"}
		}
		v := g.freshVar()
		f := &xq.For{Var: v, Src: b.v, Path: path}
		switch g.r.Intn(3) {
		case 0:
			f.Where = g.randCond(append(vars, binding{v, elem}))
		case 1:
			// A join of the loop variable with an outer binding.
			if !g.joins {
				break
			}
			if vpath, _ := g.randPath(elem, 2); vpath != nil {
				if c := g.randJoinAtom(vars, xq.PathOp(v, vpath)); c != nil {
					f.Where = c
				}
			}
		}
		f.Body = g.build(append(vars, binding{v, elem}), depth-1)
		return f
	}
}

// randJoin builds a nested-loop join: two loops over paths from one
// binding, the inner one filtered by a comparison between the two loop
// variables — the shape the engine's join probes serve.
func (g *queryGen) randJoin(vars []binding, depth int) xq.Expr {
	b := vars[g.r.Intn(len(vars))]
	// Loops right below the document iterate its single root element;
	// step past it to reach repeated elements.
	loopPath := func() (xq.Path, string) {
		if b.elem != dtd.DocumentVar {
			return g.randPath(b.elem, 3)
		}
		path, elem := g.randPath(g.schema.Root, 2)
		if path == nil {
			return nil, ""
		}
		return append(xq.Path{g.schema.Root}, path...), elem
	}
	opath, oelem := loopPath()
	ipath, ielem := loopPath()
	if opath == nil || ipath == nil {
		return &xq.Str{S: "j"}
	}
	outer := binding{g.freshVar(), oelem}
	inner := binding{g.freshVar(), ielem}
	f := &xq.For{Var: inner.v, Src: b.v, Path: ipath}
	if path, _ := g.randPath(ielem, 2); path != nil {
		f.Where = g.randJoinAtom([]binding{outer}, xq.PathOp(inner.v, path))
	}
	f.Body = g.build(append(slices.Clip(vars), outer, inner), depth-1)
	return &xq.For{Var: outer.v, Src: b.v, Path: opath, Body: f}
}

// smallVocab draws a per-document vocabulary of n values from
// joinTexts. With so few distinct values, joined elements repeat equal
// values often, which is where a probe's strict and non-strict bounds
// (< versus <=) part ways.
func smallVocab(r *rand.Rand, n int) []string {
	texts := slices.Clone(joinTexts)
	r.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	return texts[:n]
}

// tieDoc returns the longest of tieCandidates random documents whose
// text is one value drawn from joinTexts. Over one value every kid value
// of a join meets its probe value, so a probe's strict and non-strict
// bounds (> versus >=, < versus <=) select different kids; the longest
// candidate repeats elements often enough that probed loops start over
// one source twice in a generation — the runs the index serves.
func tieDoc(schema *dtd.Schema, seed int64) string {
	const tieCandidates = 16
	opt := dtd.GenOptions{Texts: smallVocab(rand.New(rand.NewSource(seed)), 1)}
	var doc string
	for k := range int64(tieCandidates) {
		if c := dtd.RandomDocument(schema, seed+1000*k, opt); len(c) > len(doc) {
			doc = c
		}
	}
	return doc
}

func TestFuzzDifferential(t *testing.T) {
	const queriesPerSchema = 120
	// Per query: one document over the generator's default texts, one
	// over joinTexts, two over small vocabularies (smallVocab), and two
	// over a single value (tieDoc).
	const docsPerQuery = 6
	// minProbedLoops keeps the generator reaching the engine's join
	// probes (index lines in the plan): path-vs-path atoms guarding
	// every output of a loop.
	const minProbedLoops = 50
	totalSkipped, total, probed := 0, 0, 0
	for si, dtdText := range fuzzSchemas {
		schema := dtd.MustParse(dtdText)
		for seed := 0; seed < queriesPerSchema; seed++ {
			g := &queryGen{r: rand.New(rand.NewSource(int64(si*10000 + seed))), schema: schema, joins: true}
			queryAST := g.build([]binding{{xq.RootVar, dtd.DocumentVar}}, 4)
			queryText := xq.Print(queryAST)
			total++
			q, err := PrepareWithSchema(queryText, schema)
			if err != nil {
				// Engine limitations (duplicate on-handlers for one
				// element, cross-scope data not provably complete) are
				// rejected at compile time; rejecting is sound, silently
				// wrong answers are not.
				totalSkipped++
				continue
			}
			probed += strings.Count(q.PlanText(), " index ")
			for d := 0; d < docsPerQuery; d++ {
				dseed := int64(seed*31 + d)
				var doc string
				switch d {
				case 0:
					doc = dtd.RandomDocument(schema, dseed, dtd.GenOptions{})
				case 1:
					doc = dtd.RandomDocument(schema, dseed, dtd.GenOptions{Texts: joinTexts})
				case 2, 3:
					doc = dtd.RandomDocument(schema, dseed, dtd.GenOptions{Texts: smallVocab(rand.New(rand.NewSource(dseed)), d)})
				default:
					doc = tieDoc(schema, dseed)
				}
				outF, _, err := q.RunString(doc, Options{Engine: FluX})
				if err != nil {
					t.Fatalf("schema %d seed %d: flux run: %v\nquery: %s\ndoc: %s\nplan:\n%s",
						si, seed, err, queryText, doc, q.PlanText())
				}
				outN, _, err := q.RunString(doc, Options{Engine: Naive})
				if err != nil {
					t.Fatalf("schema %d seed %d: naive run: %v\nquery: %s", si, seed, err, queryText)
				}
				outP, _, err := q.RunString(doc, Options{Engine: Projection})
				if err != nil {
					t.Fatalf("schema %d seed %d: projection run: %v\nquery: %s", si, seed, err, queryText)
				}
				if outF != outN {
					t.Fatalf("schema %d seed %d doc %d: flux differs from oracle\nquery: %s\nflux:  %q\noracle: %q\nFluX: %s\nplan:\n%s\ndoc: %s",
						si, seed, d, queryText, outF, outN, q.FluxText(), q.PlanText(), doc)
				}
				if outP != outN {
					t.Fatalf("schema %d seed %d doc %d: projection differs from oracle\nquery: %s\nproj:  %q\noracle: %q\ndoc: %s",
						si, seed, d, queryText, outP, outN, doc)
				}
			}
		}
	}
	if totalSkipped*4 > total {
		t.Errorf("too many queries rejected: %d of %d; generator or engine too restrictive", totalSkipped, total)
	}
	if probed < minProbedLoops {
		t.Errorf("only %d probed loops compiled, want at least %d; the generator no longer reaches the join index", probed, minProbedLoops)
	}
	t.Logf("fuzz: %d queries, %d rejected at compile time, %d probed loops", total, totalSkipped, probed)
}

// TestFuzzNormalizeEquivalence: normalization and loop merging preserve
// semantics on the oracle across random queries and documents.
func TestFuzzNormalizeEquivalence(t *testing.T) {
	for si, dtdText := range fuzzSchemas {
		schema := dtd.MustParse(dtdText)
		for seed := 0; seed < 80; seed++ {
			g := &queryGen{r: rand.New(rand.NewSource(int64(si*999 + seed))), schema: schema}
			ast := g.build([]binding{{xq.RootVar, dtd.DocumentVar}}, 4)
			norm := xq.MergeLoops(xq.Normalize(ast), schema)
			if !xq.IsNormalForm(norm) {
				t.Fatalf("schema %d seed %d: not normal form: %s", si, seed, xq.Print(norm))
			}
			doc := dtd.RandomDocument(schema, int64(seed), dtd.GenOptions{})
			a := naiveEval(t, ast, doc)
			b := naiveEval(t, norm, doc)
			if a != b {
				t.Fatalf("schema %d seed %d: normalization changed semantics\nquery: %s\nnorm:  %s\n a: %q\n b: %q\ndoc: %s",
					si, seed, xq.Print(ast), xq.Print(norm), a, b, doc)
			}
		}
	}
}

func naiveEval(t *testing.T, ast xq.Expr, doc string) string {
	t.Helper()
	var sb strings.Builder
	q := &Query{source: ast}
	if _, err := q.Run(strings.NewReader(doc), &sb, Options{Engine: Naive}); err != nil {
		t.Fatalf("naive eval: %v", err)
	}
	return sb.String()
}

// TestFuzzFoundRegressions replays queries the differential fuzzer once
// caught, against the oracle.
func TestFuzzFoundRegressions(t *testing.T) {
	cases := []struct {
		schema     int
		query, doc string
	}{
		// An on-first handler ahead of the on-handler for r fired at r's
		// start tag and read $ROOT/r empty.
		{1, `{ if $ROOT/r/a != 1991 or $ROOT/r != 7 then s1 } { $ROOT/r/a }`,
			`<r><c>gamma</c></r>`},
		// The copy guard of a simple handler compares buffered data that
		// no buffer tree held.
		{2, `{ if $ROOT/r/hdr > $ROOT/r/hdr then { for $v1 in $ROOT/r where exists $ROOT/r return { $ROOT/r/grp } } }`,
			`<r><hdr><k>-0</k><v>beta</v></hdr><grp><k>beta</k><x>007</x></grp></r>`},
		// A scaled operand printed on the left of a comparison reparses.
		{3, `{ for $v1 in $ROOT/r/s return { for $v2 in $ROOT/r/s where (-1 * $v1/u/w) <= $v2/u/w return s1 } }`,
			`<r><s><u><w>7</w></u></s><s><u><w>-0</w><w>NaN</w></u></s></r>`},
	}
	for _, c := range cases {
		q, err := PrepareWithSchema(c.query, dtd.MustParse(fuzzSchemas[c.schema]))
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		got, _, err := q.RunString(c.doc, Options{})
		if err != nil {
			t.Fatalf("%s: flux run: %v\nplan:\n%s", c.query, err, q.PlanText())
		}
		want, _, err := q.RunString(c.doc, Options{Engine: Naive})
		if err != nil {
			t.Fatalf("%s: naive run: %v", c.query, err)
		}
		if got != want {
			t.Errorf("%s: flux %q, oracle %q\nplan:\n%s", c.query, got, want, q.PlanText())
		}
	}
}
