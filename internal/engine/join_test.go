package engine

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"flux/internal/core"
	"flux/internal/dtd"
	"flux/internal/sax"
	"flux/internal/xq"
)

// joinVocab mixes values whose numeric and string orders disagree:
// numerically equal spellings, signed zero, NaN, infinity and words.
var joinVocab = []string{"7", "7.0", " 7 ", "007", "0", "-0", "NaN", "Inf", "alpha", "beta", "x y", ""}

// TestProbeIndexMatchesNestedLoop: for every operator the index serves,
// every kid and probe value from the vocabulary, scaled or not on either
// side, and multi-value kids and probes, the index selects exactly the
// kids the nested loop over compareVals selects.
func TestProbeIndexMatchesNestedLoop(t *testing.T) {
	column := func(scale float64) [][]cmpVal {
		col := make([][]cmpVal, 0, len(joinVocab)+2)
		for _, s := range joinVocab {
			var vals []cmpVal
			if v, ok := makeCmpVal(s, scale); ok {
				vals = append(vals, v)
			}
			col = append(col, vals)
		}
		two := []cmpVal{}
		for _, s := range []string{"alpha", "-0"} {
			if v, ok := makeCmpVal(s, scale); ok {
				two = append(two, v)
			}
		}
		return append(col, two, nil)
	}
	var probes [][]cmpVal
	for _, scale := range []float64{0, 0.5} {
		for i, s := range joinVocab {
			if v, ok := makeCmpVal(s, scale); ok {
				probes = append(probes, []cmpVal{v})
				w, _ := makeCmpVal(joinVocab[(i+3)%len(joinVocab)], 0)
				probes = append(probes, []cmpVal{v, w})
			}
		}
	}
	for _, op := range []xq.RelOp{xq.OpEq, xq.OpLt, xq.OpLe, xq.OpGt, xq.OpGe} {
		for _, scale := range []float64{0, 2, -1} {
			col := column(scale)
			x := newProbeIndex(op, col)
			for _, probe := range probes {
				var want []int32
				for i, vals := range col {
					if slices.ContainsFunc(vals, func(v cmpVal) bool {
						return slices.ContainsFunc(probe, func(p cmpVal) bool { return compareVals(&v, op, &p) })
					}) {
						want = append(want, int32(i))
					}
				}
				got, _ := x.matches(op, probe, len(col), nil, nil)
				if !slices.Equal(got, want) {
					t.Errorf("kid %s scale %v probe %q: index matched %v, nested loop %v",
						op, scale, probeTexts(probe), got, want)
				}
			}
		}
	}
}

func probeTexts(vals []cmpVal) []string {
	out := make([]string, len(vals))
	for i := range vals {
		out[i] = vals[i].text()
	}
	return out
}

// TestProbeFindsGuards: the compiler attaches a probe exactly where one
// comparison guards every output of a loop, mirroring the operator when
// the loop side is on the right; != , or-guards and partly unguarded
// bodies fall back to the nested loop.
func TestProbeFindsGuards(t *testing.T) {
	cases := []struct {
		cond string
		want string // the probe line, "" for none
	}{
		{"$book/editor = $article/author", "index hash: $book/editor = $article/author"},
		{"$article/author = $book/editor", "index hash: $book/editor = $article/author"},
		{"$article/title < $book/title", "index sorted: $book/title > $article/title"},
		{"$book/title >= 'B'", "index sorted: $book/title >= 'B'"},
		{"exists $book/editor and $book/publisher <= (2 * $article/journal)", "index sorted: $book/publisher <= (2 * $article/journal)"},
		{"$book/editor != $article/author", ""},
		{"$book/editor = $article/author or $book/title = 'B'", ""},
		{"$book/editor = $book/author", ""},
	}
	schema := dtd.MustParse(joinOrderedDTD)
	for _, c := range cases {
		query := `<r> { for $bib in $ROOT/bib return { for $article in $bib/article return
			{ for $book in $bib/book where ` + c.cond + ` return <m> {$book/title} </m> } } } </r>`
		f, err := core.Schedule(schema, xq.MustParse(query))
		if err != nil {
			t.Fatalf("%s: Schedule: %v", c.cond, err)
		}
		plan, err := Compile(schema, f)
		if err != nil {
			t.Fatalf("%s: Compile: %v", c.cond, err)
		}
		var got []string
		for _, line := range strings.Split(plan.Describe(), "\n") {
			if line = strings.TrimSpace(line); strings.HasPrefix(line, "index ") {
				got = append(got, line)
			}
		}
		var want []string
		if c.want != "" {
			want = []string{c.want}
		}
		if !slices.Equal(got, want) {
			t.Errorf("where %s: probe lines %q, want %q", c.cond, got, want)
		}
	}
	// An unguarded output beside the guarded ones disables the probe.
	query := `<r> { for $bib in $ROOT/bib return { for $article in $bib/article return
		{ for $book in $bib/book return { if $book/editor = $article/author then <m/> } <n/> } } } </r>`
	f, err := core.Schedule(schema, xq.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(schema, f)
	if err != nil {
		t.Fatal(err)
	}
	if d := plan.Describe(); strings.Contains(d, "index ") {
		t.Errorf("partly unguarded loop got a probe:\n%s", d)
	}
}

// TestReleasedEngineHoldsNoBuffers: after a join ran and its session
// closed, the pooled engine shell references no buffered node — not
// through the join columns and indexes, the scope-rooted operand
// columns, the frame stack, or a node slab whose block the buffered
// trees were carved from.
func TestReleasedEngineHoldsNoBuffers(t *testing.T) {
	query := `<r> { for $bib in $ROOT/bib return { for $article in $bib/article return
		{ for $book in $bib/book where $book/editor = $article/author return {$book/title} } } } </r>`
	doc := `<bib>` +
		`<book><title>B1</title><editor>Smith</editor><publisher>P</publisher></book>` +
		`<book><title>B2</title><editor>Chen</editor><publisher>P</publisher></book>` +
		`<article><title>A1</title><author>Smith</author><journal>J</journal></article>` +
		`<article><title>A2</title><author>Chen</author><journal>J</journal></article>` +
		`</bib>`
	cases := []struct {
		name, dtd string
		// ran reports whether the engine holds the join state the case
		// exists to release.
		ran func(e *engine) bool
	}{
		// Books and articles buffer, the article loop restarts the book
		// loop: columns and a hash index.
		{"loop-rooted", joinUnorderedDTD, func(e *engine) bool { return e.peakIndexBytes > 0 && len(e.loops) > 0 }},
		// Articles stream: the probe side is rooted at the $article scope.
		{"scope-rooted", joinOrderedDTD, func(e *engine) bool { return len(e.scopeCols) > 0 }},
	}
	for _, c := range cases {
		schema := dtd.MustParse(c.dtd)
		f, err := core.Schedule(schema, xq.MustParse(query))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(schema, f)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		s := NewSession(plan, &out)
		e := s.eng
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := sax.ScanString(doc, s, saxOpt); err != nil {
			t.Fatal(err)
		}
		if !c.ran(e) {
			t.Fatalf("%s: the join kept no state to release; the case no longer exercises it", c.name)
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); !strings.Contains(got, "B1") || !strings.Contains(got, "B2") {
			t.Fatalf("%s: unexpected join output %q", c.name, got)
		}
		if path := findBufNode(reflect.ValueOf(e), "engine", map[uintptr]bool{}); path != "" {
			t.Errorf("%s: released engine still references a buffered node via %s", c.name, path)
		}
	}
}

var (
	bufNodePtr   = reflect.TypeOf((*bufNode)(nil))
	bufNodeSlice = reflect.TypeOf([]bufNode(nil))
)

// findBufNode walks everything reachable from v, slices up to their
// capacity, and returns the path to the first non-nil *bufNode or
// non-empty node slab, "" if there is none.
func findBufNode(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if v.Type() == bufNodePtr {
			return path
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return findBufNode(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return findBufNode(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := findBufNode(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice:
		if v.Type() == bufNodeSlice && v.Cap() > 0 {
			return path
		}
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := findBufNode(v.Index(i), path+"[]", seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := findBufNode(it.Key(), path+"{key}", seen); p != "" {
				return p
			}
			if p := findBufNode(it.Value(), path+"{}", seen); p != "" {
				return p
			}
		}
	}
	return ""
}
