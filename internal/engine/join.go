package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"flux/internal/xq"
)

// Buffered joins. The paper leaves buffered subexpressions to any
// main-memory algorithm; this file holds the engine's:
//
//   - Operand columns. A comparison operand rooted at a for-loop variable
//     is a column of its loop: the values of every kid the loop visits,
//     navigated and parsed once per (loop, source node, event generation)
//     and read by kid position afterwards. A join re-evaluates its atoms
//     once per (outer, inner) pair, so a pair costs two slice reads, not a
//     navigation or a hashed lookup.
//   - Join probes. A loop whose every output is guarded by one comparison
//     between a loop-rooted path and a loop-invariant operand runs its
//     body only for the kids that satisfy it. From the second time the
//     loop starts over the same source in one generation, the matching
//     kids come from an index built on the loop-side column: a hash index
//     for =, sorted arrays for <, <=, > and >=.
//
// Buffers only change between incoming events, so all of this state is
// valid for one event generation (the engine's token count) and is
// dropped when the next event arrives.

// probeSpec is a loop's join probe: kid values compared by op against the
// probe operand's values. op is oriented kid-side first, so a query
// atom with the loop side on the right is stored mirrored.
type probeSpec struct {
	op    xq.RelOp
	kid   *navOperand // rooted at the loop variable; its column feeds the index
	probe *navOperand // a constant or a path rooted outside the loop
}

// bindColumn attaches an operand rooted at a loop variable to the
// innermost loop binding it. Operands with the same path and scale share
// one column: q8's three guarded ifs navigate the buyer path once.
func (ctx *compileCtx) bindColumn(o *navOperand) {
	for i := len(ctx.loops) - 1; i >= 0; i-- {
		l := ctx.loops[i]
		if l.loopVar != o.varName {
			continue
		}
		o.loop = l
		for j, c := range l.cols {
			if slices.Equal(c.path, o.path) && c.scale == o.scale {
				o.col = j
				return
			}
		}
		o.col = len(l.cols)
		l.cols = append(l.cols, o)
		return
	}
}

// findProbe returns the join probe of loop p (the innermost loop being
// compiled), or nil when no comparison atom guards every output of its
// body. The atom must compare a path rooted at p's variable with a
// constant or a path rooted outside p, by =, <, <=, > or >=.
func (ctx *compileCtx) findProbe(p *execProg) *probeSpec {
	atoms, effect := guardAtoms(p.body)
	if !effect {
		return nil
	}
	outer := ctx.loops[:len(ctx.loops)-1]
	invariant := func(o *navOperand) bool {
		return o.isConst || o.loop == nil || slices.Contains(outer, o.loop)
	}
	for _, a := range atoms {
		if a.op == xq.OpNe {
			continue
		}
		switch {
		case a.lhs.loop == p && invariant(a.rhs):
			return &probeSpec{op: a.op, kid: a.lhs, probe: a.rhs}
		case a.rhs.loop == p && invariant(a.lhs):
			return &probeSpec{op: mirrorOp(a.op), kid: a.rhs, probe: a.lhs}
		}
	}
	return nil
}

// guardAtoms returns the comparison atoms that guard every output of p:
// each appears as a conjunct of some if-condition on the path from p to
// every string or variable output. effect is false when p outputs
// nothing at all. Structurally equal atoms count as one (the normal
// form repeats a where clause once per output item); the returned atom
// is the first occurrence.
func guardAtoms(p *execProg) (atoms []*atomSpec, effect bool) {
	switch p.kind {
	case eStr, eVarOut:
		return nil, true
	case eFor:
		return guardAtoms(p.body)
	case eIf:
		inner, eff := guardAtoms(p.then)
		if !eff {
			return nil, false
		}
		return appendConjuncts(inner, p.cond), true
	case eSeq:
		for _, it := range p.items {
			as, eff := guardAtoms(it)
			switch {
			case !eff:
			case !effect:
				atoms, effect = as, true
			default:
				atoms = slices.DeleteFunc(atoms, func(a *atomSpec) bool {
					return !slices.ContainsFunc(as, a.sameComparison)
				})
			}
		}
	}
	return atoms, effect
}

// appendConjuncts appends the comparison atoms that c requires to hold.
func appendConjuncts(atoms []*atomSpec, c *condSpec) []*atomSpec {
	switch c.kind {
	case cAnd:
		return appendConjuncts(appendConjuncts(atoms, c.l), c.r)
	case cAtom:
		if a := c.atom; a.flag == nil && a.exists == nil {
			return append(atoms, a)
		}
	}
	return atoms
}

// sameComparison reports whether two comparison atoms are structurally
// equal: same operator, and operands with the same constant or the same
// binding, path and scale.
func (a *atomSpec) sameComparison(b *atomSpec) bool {
	return a.op == b.op && a.lhs.same(b.lhs) && a.rhs.same(b.rhs)
}

func (o *navOperand) same(p *navOperand) bool {
	if o.isConst || p.isConst {
		return o.isConst && p.isConst && o.constVal == p.constVal
	}
	return o.varName == p.varName && o.loop == p.loop && o.scale == p.scale && slices.Equal(o.path, p.path)
}

// markImplied marks the comparison atoms under prog that state the
// probe comparison of loop p, in either orientation. The index matches
// exactly the kids for which such an atom holds (probeIndex), so for a
// kid the index served the engine takes the atom as true instead of
// evaluating it again — and the index's exactness shows in the output.
func (pr *probeSpec) markImplied(prog *execProg, p *execProg) {
	if prog == nil {
		return
	}
	for _, it := range prog.items {
		pr.markImplied(it, p)
	}
	pr.markImplied(prog.body, p)
	pr.markImplied(prog.then, p)
	pr.markCond(prog.cond, p)
}

func (pr *probeSpec) markCond(c *condSpec, p *execProg) {
	if c == nil {
		return
	}
	pr.markCond(c.l, p)
	pr.markCond(c.r, p)
	pr.markCond(c.x, p)
	if a := c.atom; a != nil && a.flag == nil && a.exists == nil &&
		(a.op == pr.op && a.lhs.same(pr.kid) && a.rhs.same(pr.probe) ||
			mirrorOp(a.op) == pr.op && a.rhs.same(pr.kid) && a.lhs.same(pr.probe)) {
		a.implied = p
	}
}

// mirrorOp returns op' such that a op b ⇔ b op' a.
func mirrorOp(op xq.RelOp) xq.RelOp {
	switch op {
	case xq.OpLt:
		return xq.OpGt
	case xq.OpLe:
		return xq.OpGe
	case xq.OpGt:
		return xq.OpLt
	case xq.OpGe:
		return xq.OpLe
	}
	return op
}

// --- Run time -----------------------------------------------------------

// loopRun is one loop's state over one source node within one event
// generation.
type loopRun struct {
	kids  []*bufNode   // the source's kids named by the loop step, in document order
	cols  [][][]cmpVal // cols[c][i]: the values of column c for kids[i]
	runs  int          // times the loop started over this source
	index *probeIndex  // built on the second start of a probed loop
}

type loopKey struct {
	loop *execProg
	src  *bufNode
}

// loopRunFor returns the state of loop p over src, building the kid list
// and columns the first time the loop meets src in this generation.
func (e *engine) loopRunFor(p *execProg, src *bufNode) *loopRun {
	e.rollJoins()
	k := loopKey{loop: p, src: src}
	if r, ok := e.loops[k]; ok {
		return r
	}
	// Reuse the loop runs of earlier generations, with their slices: a
	// per-instance scope runs its loops once per event.
	if e.usedRuns == len(e.runs) {
		e.runs = append(e.runs, &loopRun{})
	}
	r := e.runs[e.usedRuns]
	e.usedRuns++
	r.kids, r.runs, r.index = r.kids[:0], 0, nil
	for _, kid := range src.Kids {
		if kid.Name == p.step {
			r.kids = append(r.kids, kid)
		}
	}
	r.cols = slices.Grow(r.cols[:0], len(p.cols))[:len(p.cols)]
	for c, o := range p.cols {
		col := slices.Grow(r.cols[c][:0], len(r.kids))[:len(r.kids)]
		for i, kid := range r.kids {
			start := len(e.cmpArena)
			e.cmpArena = e.appendValues(e.cmpArena, kid, o)
			col[i] = e.cmpArena[start:len(e.cmpArena):len(e.cmpArena)]
		}
		r.cols[c] = col
	}
	if e.loops == nil {
		e.loops = make(map[loopKey]*loopRun)
	}
	e.loops[k] = r
	return r
}

// scopeCol is the single-entry column of an operand rooted at a scope
// variable: its values against that scope's buffer root.
type scopeCol struct {
	root *bufNode
	vals []cmpVal
}

// scopeValues returns the values of scope-rooted operand o against root,
// navigating them the first time in this generation.
func (e *engine) scopeValues(o *navOperand, root *bufNode) []cmpVal {
	e.rollJoins()
	if c, ok := e.scopeCols[o]; ok && c.root == root {
		return c.vals
	}
	start := len(e.cmpArena)
	e.cmpArena = e.appendValues(e.cmpArena, root, o)
	vals := e.cmpArena[start:len(e.cmpArena):len(e.cmpArena)]
	if e.scopeCols == nil {
		e.scopeCols = make(map[*navOperand]scopeCol)
	}
	e.scopeCols[o] = scopeCol{root: root, vals: vals}
	return vals
}

// rollJoins drops the join state of an earlier event generation.
func (e *engine) rollJoins() {
	if e.loopGen == e.tokens {
		return
	}
	clear(e.loops)
	clear(e.scopeCols)
	e.usedRuns = 0
	e.cmpArena = e.cmpArena[:0]
	e.indexBytes = 0
	e.loopGen = e.tokens
}

// appendValues appends the parsed values of operand o navigated from
// root.
func (e *engine) appendValues(dst []cmpVal, root *bufNode, o *navOperand) []cmpVal {
	nodes := root.Select(o.path, e.selScratch[:0])
	for _, n := range nodes {
		if v, ok := makeCmpVal(n.StringValue(), o.scale); ok {
			dst = append(dst, v)
		}
	}
	e.selScratch = nodes[:0]
	return dst
}

// runLoop executes a for-loop. A loop without columns iterates its
// source directly; one with columns binds each kid with its position, so
// the body's loop-rooted operands read their column entries. A probed
// loop starting over a source for the second time in a generation runs
// its body only for the kids its index matches.
func (e *engine) runLoop(p *execProg, env *execEnv) error {
	src, err := env.resolve(p.src, p.slot)
	if err != nil {
		return err
	}
	if p.cols == nil {
		for _, kid := range src.Kids {
			if kid.Name != p.step {
				continue
			}
			if err := e.runBody(p, env, varBind{name: p.loopVar, node: kid}); err != nil {
				return err
			}
		}
		return nil
	}
	run := e.loopRunFor(p, src)
	run.runs++
	if p.probe == nil || run.runs == 1 {
		for i, kid := range run.kids {
			if err := e.runBody(p, env, varBind{name: p.loopVar, node: kid, run: run, pos: i}); err != nil {
				return err
			}
		}
		return nil
	}
	vals, err := e.operandValues(p.probe.probe, env)
	if err != nil {
		return err
	}
	if run.index == nil {
		run.index = newProbeIndex(p.probe.op, run.cols[p.probe.kid.col])
		e.indexBytes += run.index.bytes
		if e.indexBytes > e.peakIndexBytes {
			e.peakIndexBytes = e.indexBytes
		}
	}
	// The matches sit on e.posStack while the body runs; nested probed
	// loops push theirs above and pop them before returning.
	start := len(e.posStack)
	e.posStack, e.matchSet = run.index.matches(p.probe.op, vals, len(run.kids), e.posStack, e.matchSet)
	end := len(e.posStack)
	defer func() { e.posStack = e.posStack[:start] }()
	for k := start; k < end; k++ {
		i := int(e.posStack[k])
		if err := e.runBody(p, env, varBind{name: p.loopVar, node: run.kids[i], run: run, pos: i, probed: p}); err != nil {
			return err
		}
	}
	return nil
}

func (e *engine) runBody(p *execProg, env *execEnv, b varBind) error {
	mark := len(env.vars)
	env.vars = append(env.vars, b)
	err := e.runExec(p.body, env)
	env.vars = env.vars[:mark]
	return err
}

// probeIndex finds the kids of a loop source whose column values satisfy
// a comparison against probe values, with exactly the results of
// compareVals over every (kid value, probe value) pair: two values
// compare as numbers when both parse, as strings otherwise. Equal strings
// are always equally numeric, so equality splits into a numeric map and a
// map of the non-numeric strings. NaN never matches numerically, but a
// numeric value still compares as its string form against a non-numeric
// probe, which is why order comparisons keep numeric values in a
// string-sorted array too.
type probeIndex struct {
	// =: kid positions by numeric value (NaN excluded) and by
	// non-numeric string, ascending and without duplicates.
	nums map[float64][]int32
	strs map[string][]int32

	// <, <=, >, >=: entries sorted by value.
	byNum  []numEntry // numeric values, NaN excluded
	byText []strEntry // numeric values by their string form
	byStr  []strEntry // non-numeric values

	bytes int64 // nominal size, for Stats.IndexBytes
}

type numEntry struct {
	num float64
	pos int32
}

type strEntry struct {
	str string
	pos int32
}

// Nominal index sizes: a hash entry is its key plus a position-list
// header, every listed position is an int32.
const (
	numKeyBytes = int64(unsafe.Sizeof(float64(0)) + unsafe.Sizeof([]int32(nil)))
	strKeyBytes = int64(unsafe.Sizeof("") + unsafe.Sizeof([]int32(nil)))
	posBytes    = int64(unsafe.Sizeof(int32(0)))
)

func newProbeIndex(op xq.RelOp, col [][]cmpVal) *probeIndex {
	x := &probeIndex{}
	if op == xq.OpEq {
		x.nums = make(map[float64][]int32)
		x.strs = make(map[string][]int32)
		for i, vals := range col {
			pos := int32(i)
			for j := range vals {
				v := &vals[j]
				switch {
				case !v.isNum:
					x.strs[v.str] = addPos(x.strs[v.str], pos)
				case !math.IsNaN(v.num):
					x.nums[v.num] = addPos(x.nums[v.num], pos)
				}
			}
		}
		for _, l := range x.nums {
			x.bytes += numKeyBytes + posBytes*int64(len(l))
		}
		for _, l := range x.strs {
			x.bytes += strKeyBytes + posBytes*int64(len(l))
		}
		return x
	}
	for i, vals := range col {
		pos := int32(i)
		for j := range vals {
			v := &vals[j]
			if !v.isNum {
				x.byStr = append(x.byStr, strEntry{v.str, pos})
				continue
			}
			x.byText = append(x.byText, strEntry{v.text(), pos})
			if !math.IsNaN(v.num) {
				x.byNum = append(x.byNum, numEntry{v.num, pos})
			}
		}
	}
	slices.SortFunc(x.byNum, func(a, b numEntry) int { return cmp.Compare(a.num, b.num) })
	byString := func(a, b strEntry) int { return strings.Compare(a.str, b.str) }
	slices.SortFunc(x.byText, byString)
	slices.SortFunc(x.byStr, byString)
	x.bytes = int64(unsafe.Sizeof(numEntry{}))*int64(len(x.byNum)) +
		int64(unsafe.Sizeof(strEntry{}))*int64(len(x.byText)+len(x.byStr))
	return x
}

// addPos appends pos unless it is already the list's last entry (a kid
// with repeated values).
func addPos(l []int32, pos int32) []int32 {
	if n := len(l); n > 0 && l[n-1] == pos {
		return l
	}
	return append(l, pos)
}

// matches appends to out, in ascending order, the positions of the n
// kids with some value v such that v op p holds for some probe value p.
// set is scratch for the union, returned for reuse.
func (x *probeIndex) matches(op xq.RelOp, probe []cmpVal, n int, out []int32, set []uint64) ([]int32, []uint64) {
	if op == xq.OpEq && len(probe) == 1 {
		return append(out, x.equal(&probe[0])...), set
	}
	words := (n + 63) / 64
	if cap(set) < words {
		set = make([]uint64, words)
	}
	set = set[:words]
	clear(set)
	mark := func(pos int32) { set[pos>>6] |= 1 << (pos & 63) }
	for i := range probe {
		p := &probe[i]
		if op == xq.OpEq {
			for _, pos := range x.equal(p) {
				mark(pos)
			}
			continue
		}
		if p.isNum {
			if !math.IsNaN(p.num) {
				lo, hi := opRange(len(x.byNum), op, func(i int) int { return cmp.Compare(x.byNum[i].num, p.num) })
				for _, en := range x.byNum[lo:hi] {
					mark(en.pos)
				}
			}
		} else {
			for _, en := range strRange(x.byText, op, p.str) {
				mark(en.pos)
			}
		}
		for _, en := range strRange(x.byStr, op, p.text()) {
			mark(en.pos)
		}
	}
	for w, word := range set {
		for word != 0 {
			out = append(out, int32(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out, set
}

// equal returns the positions of the kids with a value equal to p.
func (x *probeIndex) equal(p *cmpVal) []int32 {
	if p.isNum {
		return x.nums[p.num] // a NaN key never matches
	}
	return x.strs[p.str]
}

func strRange(a []strEntry, op xq.RelOp, s string) []strEntry {
	lo, hi := opRange(len(a), op, func(i int) int { return strings.Compare(a[i].str, s) })
	return a[lo:hi]
}

// opRange returns the index range [lo, hi) of the entries e of an
// ascending array with e op v, given c(i) comparing entry i with v.
func opRange(n int, op xq.RelOp, c func(i int) int) (lo, hi int) {
	below := func() int { return sort.Search(n, func(i int) bool { return c(i) >= 0 }) }
	atMost := func() int { return sort.Search(n, func(i int) bool { return c(i) > 0 }) }
	switch op {
	case xq.OpLt:
		return 0, below()
	case xq.OpLe:
		return 0, atMost()
	case xq.OpGt:
		return atMost(), n
	default: // OpGe
		return below(), n
	}
}

// --- Plan description ---------------------------------------------------

// describeProbes prints one line per probed loop in p.
func describeProbes(b *strings.Builder, p *execProg, pad string) {
	if p == nil {
		return
	}
	if p.kind == eFor && p.probe != nil {
		kind := "sorted"
		if p.probe.op == xq.OpEq {
			kind = "hash"
		}
		fmt.Fprintf(b, "%sindex %s: %s %s %s\n", pad, kind,
			p.probe.kid.describe(), p.probe.op, p.probe.probe.describe())
	}
	for _, it := range p.items {
		describeProbes(b, it, pad)
	}
	describeProbes(b, p.body, pad)
	describeProbes(b, p.then, pad)
}

func (o *navOperand) describe() string {
	if o.isConst {
		return "'" + o.constVal + "'"
	}
	path := o.varName + "/" + strings.Join(o.path, "/")
	if o.scale != 0 {
		return fmt.Sprintf("(%v * %s)", o.scale, path)
	}
	return path
}
