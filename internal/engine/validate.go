package engine

import (
	"fmt"

	"flux/internal/dtd"
)

// Shared validation. Every session of a shared scan runs the same
// Glushkov automaton steps over the same document (Appendix B): the
// step that validates an element is also the one that raises the
// past() punctuation its handlers wait on. A Validator takes each step
// once per scan and schema; the multiplexer hands the outcome (a Step)
// to every session it delivers the event to, and the sessions only read
// it.
//
// A session that receives an element event is active at the element's
// parent, so it has seen every earlier child of that parent — as an
// event or as one SkipSubtree step — and its automaton state there
// equals the Validator's. A validation error therefore fails exactly the
// sessions that receive the failing event, with the message each would
// have produced alone. After a failed step the parent's state is
// unknown, so the Validator marks the parent frame dead until it closes;
// no session that relies on the shared state is still live below it.
//
// The exception is a session that joins a stream mid-document
// (mux.AttachStream): it sees only a suffix of the root element's
// children, so its root frame keeps an automaton state of its own (the
// frame's own flag) and it validates root-level steps itself.

// Step is the outcome of one validated element event. For a start tag
// (or a skipped subtree) Sym is the element's symbol in the schema, Prev
// and Next are the parent's automaton states around the step, and Child
// is the element's production, nil when the DTD does not declare it.
// Err is the validation error of the step, nil when the element is
// allowed here; for an end tag it reports incomplete content.
type Step struct {
	Sym        int32
	Prev, Next int
	Child      *dtd.Production
	Err        error
}

// Validator tracks one schema's automaton states along the open-element
// stack of a shared scan. It is not safe for concurrent use; the
// parallel pipeline runs it on the scan goroutine and ships the Steps
// to its workers.
type Validator struct {
	schema *dtd.Schema
	frames []valFrame
	step   Step
}

type valFrame struct {
	prod  *dtd.Production // nil for an undeclared element
	state int
	name  string
	dead  bool // state unknown: a step failed here, or the frame was joined mid-way
}

// errDeadState reports a step taken where the shared state is unknown.
// No session relying on the shared state is live there (see the comment
// above Step), so reaching a session with it is an engine bug.
var errDeadState = &RunError{Msg: "shared validation state lost"}

// NewValidator returns a Validator for schema positioned before the
// document's root element.
func NewValidator(schema *dtd.Schema) *Validator {
	doc, _ := schema.Production(dtd.DocumentVar)
	v := &Validator{schema: schema}
	v.frames = append(v.frames, valFrame{prod: doc, state: doc.Auto.Start(), name: dtd.DocumentVar})
	return v
}

// Schema returns the schema the Validator checks against.
func (v *Validator) Schema() *dtd.Schema { return v.schema }

// Start validates a start tag and descends into the element. sym is the
// element's symbol in the Validator's schema. The returned Step is valid
// until the next call.
func (v *Validator) Start(name string, sym int32) *Step {
	st := v.stepParent(name, sym)
	child := st.Child
	f := valFrame{prod: child, name: name, dead: child == nil}
	if child != nil {
		f.state = child.Auto.Start()
	}
	v.frames = append(v.frames, f)
	return st
}

// Skip validates a complete element subtree consumed as one step: the
// parent's automaton steps over it, nothing is pushed.
func (v *Validator) Skip(name string, sym int32) *Step {
	return v.stepParent(name, sym)
}

func (v *Validator) stepParent(name string, sym int32) *Step {
	top := &v.frames[len(v.frames)-1]
	st := &v.step
	*st = Step{Sym: sym, Prev: top.state, Next: top.state, Child: v.schema.ProductionSym(sym)}
	if top.dead {
		st.Err = errDeadState
		return st
	}
	next, ok := top.prod.Auto.StepSym(top.state, sym)
	if !ok {
		st.Err = errNotAllowed(name, top.prod, top.name)
		top.dead = true
		return st
	}
	top.state, st.Next = next, next
	return st
}

// End validates an end tag — the element's content must be complete —
// and ascends to the parent.
func (v *Validator) End(name string) *Step {
	top := v.frames[len(v.frames)-1]
	v.frames = v.frames[:len(v.frames)-1]
	st := &v.step
	*st = Step{}
	switch {
	case top.dead:
		st.Err = errDeadState
	case !top.prod.Auto.Accepting(top.state):
		st.Err = errIncomplete(name, top.prod)
	}
	return st
}

// JoinRoot positions a Validator created mid-stream inside the open root
// element: the document frame steps over the root, and the root frame's
// state is unknown — the prefix of its children was never seen — so it
// is dead. Sessions joining there validate the root level themselves.
func (v *Validator) JoinRoot(name string, sym int32) {
	v.Start(name, sym)
	v.frames[len(v.frames)-1].dead = true
}

func errNotAllowed(name string, parent *dtd.Production, parentName string) error {
	return &RunError{Msg: fmt.Sprintf("element <%s> not allowed by content model %s of <%s>",
		name, parent.Model, parentName)}
}

func errUndeclared(name string) error {
	return &RunError{Msg: fmt.Sprintf("element <%s> is not declared in the DTD", name)}
}

func errIncomplete(name string, prod *dtd.Production) error {
	return &RunError{Msg: fmt.Sprintf("element <%s> closed with incomplete content (model %s)",
		name, prod.Model)}
}
