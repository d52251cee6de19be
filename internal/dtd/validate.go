package dtd

import (
	"fmt"
	"io"

	"flux/internal/sax"
)

// ValidationError reports a document that does not conform to the schema.
type ValidationError struct {
	Msg string
}

// Error implements error.
func (e *ValidationError) Error() string { return "dtd: invalid document: " + e.Msg }

// Validator is a sax.Handler that checks a document against a Schema by
// running one Glushkov automaton per open element, exactly the mechanism
// the paper's SAX parser uses for validation (Appendix B). A Validator can
// wrap another handler to form a validating pipeline.
type Validator struct {
	schema *Schema
	next   sax.Handler // optional downstream handler
	stack  []valFrame
}

type valFrame struct {
	prod  *Production
	state int
}

// NewValidator returns a Validator for schema. If next is non-nil, events
// are forwarded to it after validation.
func NewValidator(schema *Schema, next sax.Handler) *Validator {
	v := &Validator{schema: schema, next: next}
	v.stack = append(v.stack, valFrame{prod: schema.doc, state: schema.doc.Auto.Start()})
	return v
}

func (v *Validator) errf(format string, args ...any) error {
	return &ValidationError{Msg: fmt.Sprintf(format, args...)}
}

// StartElement implements sax.Handler.
func (v *Validator) StartElement(name string) error {
	top := &v.stack[len(v.stack)-1]
	sym := v.schema.Sym(name)
	next, ok := top.prod.Auto.StepSym(top.state, sym)
	if !ok {
		return v.errf("element <%s> not allowed at this point inside <%s> (content model %s)",
			name, top.prod.Name, top.prod.Model)
	}
	top.state = next
	child := v.schema.ProductionSym(sym)
	if child == nil {
		return v.errf("element <%s> is not declared", name)
	}
	v.stack = append(v.stack, valFrame{prod: child, state: child.Auto.Start()})
	if v.next != nil {
		return v.next.StartElement(name)
	}
	return nil
}

// Text implements sax.Handler.
func (v *Validator) Text(data string) error {
	top := &v.stack[len(v.stack)-1]
	if !top.prod.Mixed && top.prod.Name != DocumentVar {
		if !allXMLSpace(data) {
			return v.errf("character data %q not allowed inside <%s>", head(data, 20), top.prod.Name)
		}
		return nil
	}
	if v.next != nil {
		return v.next.Text(data)
	}
	return nil
}

// EndElement implements sax.Handler.
func (v *Validator) EndElement(name string) error {
	top := v.stack[len(v.stack)-1]
	if !top.prod.Auto.Accepting(top.state) {
		return v.errf("element <%s> closed with incomplete content (model %s)", name, top.prod.Model)
	}
	v.stack = v.stack[:len(v.stack)-1]
	if v.next != nil {
		return v.next.EndElement(name)
	}
	return nil
}

// Validate checks that the XML document read from r conforms to the
// schema.
func Validate(schema *Schema, r io.Reader, opt sax.Options) error {
	return sax.Scan(r, NewValidator(schema, nil), opt)
}

func allXMLSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}
