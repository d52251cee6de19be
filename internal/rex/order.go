package rex

// This file implements the schema-constraint relations of the paper:
// order constraints (Section 2), the PastTable used to generate
// first-past punctuation events (Appendix B), and cardinality analysis
// (Section 7).

// Ord reports the order constraint Ord_ρ(a, b): there is no word of L(ρ)
// in which an occurrence of a is preceded by an occurrence of b; that is,
// all a's occur before all b's. Following the declarative definition, the
// constraint holds vacuously if either symbol does not occur in ρ.
//
// Via the automaton: after reading any b (i.e. in any state labelled b),
// a must be past.
func (a *Automaton) Ord(first, then string) bool {
	ti, ok := a.symIndex(then)
	if !ok {
		return true
	}
	if !a.HasSymbol(first) {
		return true
	}
	for p := 1; p < a.n; p++ {
		if a.posSym[p] == ti && !a.Past(p, first) {
			return false
		}
	}
	return true
}

// AtMostOnce reports whether every word of L(ρ) contains at most one
// occurrence of name (the cardinality constraint a ∈ ||≤1 of Section 7).
// Symbols outside the alphabet occur zero times and qualify.
func (a *Automaton) AtMostOnce(name string) bool {
	si, ok := a.symIndex(name)
	if !ok {
		return true
	}
	for p := 1; p < a.n; p++ {
		if a.posSym[p] == si && a.reachSyms[p].has(si) {
			return false
		}
	}
	return true
}

// PastTable precomputes, for every automaton state q, whether all symbols
// of S are past in q (PastTable_{ρ,S} of Appendix B). The engine uses one
// table per registered on-first handler; checking first-past during
// validation is then a constant-time lookup per input token.
func (a *Automaton) PastTable(S []string) []bool {
	t := make([]bool, a.n)
	for q := 0; q < a.n; q++ {
		all := true
		for _, s := range S {
			if !a.Past(q, s) {
				all = false
				break
			}
		}
		t[q] = all
	}
	return t
}

// Words enumerates all words of L(ρ) of length at most maxLen, up to a
// limit of max words. It exists for exhaustive testing of the constraint
// relations and for small-schema tooling; it must not be used on large
// alphabets.
func (a *Automaton) Words(maxLen, max int) [][]string {
	var out [][]string
	var cur []string
	var rec func(q, depth int)
	rec = func(q, depth int) {
		if len(out) >= max {
			return
		}
		if a.accept[q] {
			w := make([]string, len(cur))
			copy(w, cur)
			out = append(out, w)
		}
		if depth == maxLen {
			return
		}
		for si, p := range a.trans[q] {
			if p < 0 {
				continue
			}
			cur = append(cur, a.syms[si])
			rec(p, depth+1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, 0)
	return out
}
