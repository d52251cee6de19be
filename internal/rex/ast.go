// Package rex implements the regular-expression machinery behind the FluX
// paper's schema analysis (Section 2 and Appendix B): content-model
// expressions, Glushkov automata for one-unambiguous regular expressions,
// order constraints Ord_ρ(a,b), the Past / first-past relations used to
// generate punctuation events, and cardinality (at-most-once) analysis used
// by the Section 7 loop-merging rewrite.
package rex

import (
	"slices"
	"strings"
)

// Expr is a regular expression over element names (content model).
type Expr interface {
	// String renders the expression in DTD content-model syntax.
	String() string
	appendTo(b *strings.Builder, prec int)
}

// precedences for printing: alt < seq < postfix.
const (
	precAlt = iota
	precSeq
	precPost
)

// Epsilon matches the empty word. DTDs write it as EMPTY at the production
// level; it also arises as a component of analyses.
type Epsilon struct{}

// Sym matches a single element name.
type Sym struct{ Name string }

// Seq matches the concatenation of its items.
type Seq struct{ Items []Expr }

// Alt matches any one of its items.
type Alt struct{ Items []Expr }

// Star matches zero or more repetitions of X.
type Star struct{ X Expr }

// Plus matches one or more repetitions of X.
type Plus struct{ X Expr }

// Opt matches zero or one occurrence of X.
type Opt struct{ X Expr }

func (Epsilon) String() string { return "EMPTY" }
func (e Sym) String() string   { return e.Name }

func (e Seq) String() string  { return exprString(e) }
func (e Alt) String() string  { return exprString(e) }
func (e Star) String() string { return exprString(e) }
func (e Plus) String() string { return exprString(e) }
func (e Opt) String() string  { return exprString(e) }

func exprString(e Expr) string {
	var b strings.Builder
	e.appendTo(&b, precAlt)
	return b.String()
}

func (Epsilon) appendTo(b *strings.Builder, prec int) { b.WriteString("EMPTY") }

func (e Sym) appendTo(b *strings.Builder, prec int) { b.WriteString(e.Name) }

func (e Seq) appendTo(b *strings.Builder, prec int) {
	if len(e.Items) == 1 {
		e.Items[0].appendTo(b, prec)
		return
	}
	if prec > precSeq {
		b.WriteByte('(')
	}
	for i, it := range e.Items {
		if i > 0 {
			b.WriteByte(',')
		}
		it.appendTo(b, precSeq+1)
	}
	if prec > precSeq {
		b.WriteByte(')')
	}
}

func (e Alt) appendTo(b *strings.Builder, prec int) {
	if len(e.Items) == 1 {
		e.Items[0].appendTo(b, prec)
		return
	}
	if prec > precAlt {
		b.WriteByte('(')
	}
	for i, it := range e.Items {
		if i > 0 {
			b.WriteByte('|')
		}
		it.appendTo(b, precAlt+1)
	}
	if prec > precAlt {
		b.WriteByte(')')
	}
}

func (e Star) appendTo(b *strings.Builder, prec int) {
	e.X.appendTo(b, precPost)
	b.WriteByte('*')
}

func (e Plus) appendTo(b *strings.Builder, prec int) {
	e.X.appendTo(b, precPost)
	b.WriteByte('+')
}

func (e Opt) appendTo(b *strings.Builder, prec int) {
	e.X.appendTo(b, precPost)
	b.WriteByte('?')
}

// Symbols returns the set of distinct element names occurring in e, in
// first-occurrence order (symb(ρ) in the paper).
func Symbols(e Expr) []string {
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case Epsilon:
		case Sym:
			// Content-model alphabets are small: a scan beats a set.
			if !slices.Contains(out, e.Name) {
				out = append(out, e.Name)
			}
		case Seq:
			for _, it := range e.Items {
				walk(it)
			}
		case Alt:
			for _, it := range e.Items {
				walk(it)
			}
		case Star:
			walk(e.X)
		case Plus:
			walk(e.X)
		case Opt:
			walk(e.X)
		}
	}
	walk(e)
	return out
}
