package dtd

import (
	"strings"
	"testing"

	"flux/internal/sax"
)

// The three bibliography DTDs from Section 1 of the paper.
const (
	weakBibDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`
	useCaseBibDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title,(author+|editor+),publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`
)

func TestParseBibDTDs(t *testing.T) {
	weak := MustParse(weakBibDTD)
	if weak.Root != "bib" {
		t.Errorf("weak root = %q, want bib", weak.Root)
	}
	if weak.Ord("book", "title", "author") {
		t.Error("weak DTD: Ord_book(title, author) = true, want false")
	}
	strong := MustParse(useCaseBibDTD)
	if !strong.Ord("book", "title", "author") {
		t.Error("use-case DTD: Ord_book(title, author) = false, want true")
	}
	if !strong.AtMostOnce("book", "title") {
		t.Error("use-case DTD: title should be at most once in book")
	}
	if strong.AtMostOnce("book", "author") {
		t.Error("use-case DTD: author can repeat")
	}
	if !strong.AtMostOnce("bib", "nothere") {
		t.Error("undeclared child is trivially at-most-once")
	}
}

func TestDocumentProduction(t *testing.T) {
	s := MustParse(weakBibDTD)
	doc, ok := s.Production(DocumentVar)
	if !ok || doc.Model.String() != "bib" {
		t.Fatalf("document production = %v, %v", doc, ok)
	}
	if !s.AtMostOnce(DocumentVar, "bib") {
		t.Error("document element must be at-most-once")
	}
}

func TestParseMixedAndEmpty(t *testing.T) {
	s := MustParse(`
<!ELEMENT a (b,c?)>
<!ELEMENT b EMPTY>
<!ELEMENT c (#PCDATA|d)*>
<!ELEMENT d (#PCDATA)>
<!ATTLIST a x CDATA #REQUIRED>
<!-- a comment -->
`)
	b, _ := s.Production("b")
	if b.Mixed || b.Model.String() != "EMPTY" {
		t.Errorf("b = %+v", b)
	}
	c, _ := s.Production("c")
	if !c.Mixed || c.Model.String() != "d*" {
		t.Errorf("c = %+v, model %s", c, c.Model)
	}
	d, _ := s.Production("d")
	if !d.Mixed {
		t.Errorf("d not mixed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"unterminated":    `<!ELEMENT a (b)`,
		"dup":             "<!ELEMENT a (b)><!ELEMENT a (c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
		"any":             `<!ELEMENT a ANY>`,
		"ambiguous model": `<!ELEMENT a ((b,c)|(b,d))><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>`,
		"stray":           `hello <!ELEMENT a EMPTY>`,
		"empty":           ``,
		"bad model":       `<!ELEMENT a (b,)>`,
	}
	for name, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestRootInference(t *testing.T) {
	// Two unreferenced elements: ambiguous root.
	_, err := Parse(`<!ELEMENT a (c)><!ELEMENT b (c)><!ELEMENT c EMPTY>`)
	if err == nil {
		t.Error("ambiguous root not detected")
	}
	s, err := ParseWithRoot(`<!ELEMENT a (c)><!ELEMENT b (c)><!ELEMENT c EMPTY>`, "a")
	if err != nil || s.Root != "a" {
		t.Errorf("ParseWithRoot: %v, %v", s, err)
	}
	if _, err := ParseWithRoot(`<!ELEMENT a EMPTY>`, "zz"); err == nil {
		t.Error("undeclared root accepted")
	}
	// Recursive element referencing itself still roots fine.
	s2, err := Parse(`<!ELEMENT a (a|b)*><!ELEMENT b EMPTY>`)
	if err != nil || s2.Root != "a" {
		t.Errorf("self-recursive: %v, %v", s2, err)
	}
}

func validate(t *testing.T, schema *Schema, doc string) error {
	t.Helper()
	return Validate(schema, strings.NewReader(doc), sax.Options{SkipWhitespaceText: true})
}

func TestValidate(t *testing.T) {
	s := MustParse(useCaseBibDTD)
	good := `<bib>
  <book><title>t</title><author>a</author><author>b</author><publisher>p</publisher><price>1</price></book>
  <book><title>t</title><editor>e</editor><publisher>p</publisher><price>2</price></book>
</bib>`
	if err := validate(t, s, good); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
	bad := []struct{ name, doc string }{
		{"wrong root", `<book></book>`},
		{"missing title", `<bib><book><author>a</author><publisher>p</publisher><price>1</price></book></bib>`},
		{"author then editor", `<bib><book><title>t</title><author>a</author><editor>e</editor><publisher>p</publisher><price>1</price></book></bib>`},
		{"incomplete", `<bib><book><title>t</title><author>a</author></book></bib>`},
		{"undeclared element", `<bib><zap/></bib>`},
		{"text in element content", `<bib>text</bib>`},
	}
	for _, c := range bad {
		if err := validate(t, s, c.doc); err == nil {
			t.Errorf("%s: invalid document accepted", c.name)
		}
	}
}

func TestValidatorForwards(t *testing.T) {
	s := MustParse(weakBibDTD)
	var c sax.Collector
	err := sax.ScanString(`<bib><book><title>x</title></book></bib>`, NewValidator(s, &c), sax.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != 7 {
		t.Errorf("forwarded %d events, want 7: %v", len(c.Events), c.Events)
	}
}

func TestSchemaString(t *testing.T) {
	s := MustParse(useCaseBibDTD)
	out := s.String()
	// Reparse of the printed schema must yield the same constraints.
	s2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse of %q: %v", out, err)
	}
	if s2.Root != s.Root {
		t.Errorf("root %q != %q", s2.Root, s.Root)
	}
	if !s2.Ord("book", "title", "author") {
		t.Error("reparsed schema lost order constraint")
	}
}

// TestSymbolTable: declared elements get dense IDs in declaration
// order, names only a content model mentions follow, unknown names map
// to NoSym, and stepping any automaton by ID agrees with stepping it by
// name in every state.
func TestSymbolTable(t *testing.T) {
	s := MustParse(`
<!ELEMENT r (a, (b | ghost)*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (a?)>
`)
	var _ sax.SymbolTable = s
	for i, name := range []string{"r", "a", "b", "ghost"} {
		if got := s.Sym(name); got != int32(i) {
			t.Errorf("Sym(%q) = %d, want %d", name, got, i)
		}
	}
	if s.NumSyms() != 4 {
		t.Errorf("NumSyms = %d, want 4", s.NumSyms())
	}
	if got := s.Sym("nowhere"); got != NoSym {
		t.Errorf("Sym(nowhere) = %d, want NoSym", got)
	}
	if p := s.ProductionSym(s.Sym("b")); p == nil || p.Name != "b" {
		t.Errorf("ProductionSym(b) = %v", p)
	}
	for _, sym := range []int32{s.Sym("ghost"), NoSym, 99} {
		if p := s.ProductionSym(sym); p != nil {
			t.Errorf("ProductionSym(%d) = %v, want nil", sym, p)
		}
	}
	names := append(s.Elements(), DocumentVar)
	for _, elem := range names {
		p, _ := s.Production(elem)
		for q := 0; q < p.Auto.NumStates(); q++ {
			for _, name := range []string{"r", "a", "b", "ghost", "nowhere"} {
				wantNext, wantOK := p.Auto.Step(q, name)
				next, ok := p.Auto.StepSym(q, s.Sym(name))
				if next != wantNext || ok != wantOK {
					t.Errorf("%s state %d on %s: StepSym (%d,%v), Step (%d,%v)", elem, q, name, next, ok, wantNext, wantOK)
				}
			}
		}
	}
}
