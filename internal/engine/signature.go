package engine

// Projected-path signatures: the static answer to "which parts of the
// document can this plan possibly consume?". The paper's buffer analysis
// already proves which paths a query buffers; the signature generalizes
// that to every stream position the compiled plan observes — scope
// elements, watcher paths, buffer-tree paths, stream-copied subtrees —
// so a multiplexer can route events selectively: a subtree no path of
// the signature can match is skipped in one step instead of fanned to
// the plan event by event (see Session.SkipSubtree and internal/mux).

import (
	"sort"
	"strings"

	"flux/internal/dtd"
	"flux/internal/sax"
)

// SigNode is one node of a plan's projected-path signature, a trie over
// element names rooted at the document. A node present in the trie means
// the plan observes the start and end tags of elements at that path (a
// "spine" position: scope elements, watcher-path steps, tags-only buffer
// paths). All marks a position whose entire subtree — every descendant
// event, including character data — must be delivered: stream-copied
// subtrees, fully buffered (marked) nodes, and value-comparison watcher
// targets, whose text accumulates from the whole subtree.
//
// A SigNode is built once at Compile time and shared by every execution
// of the plan; treat it as read-only.
type SigNode struct {
	// All reports that every event below this position is consumed.
	All bool
	// DropText reports that character data arriving at this spine
	// position may be withheld from the plan without changing its
	// behavior. It is set from the DTD: at a mixed-content position text
	// is always legal, and a spine position by construction consumes
	// nothing (no copy, capture, or accumulator is live there), so the
	// engine would validate the text and throw it away. At a non-mixed
	// position the bit stays false — stray character data there is a
	// validation error the plan must still observe, so routers keep
	// delivering it (validation parity with all-fanout). Meaningless on
	// All nodes, whose subtrees are delivered in full.
	DropText bool
	// Kids maps a child element name to its signature node; names absent
	// from the map (under a node with All unset) are skippable subtrees.
	Kids map[string]*SigNode
}

// child returns the named child node, creating it if needed.
func (n *SigNode) child(name string) *SigNode {
	if n.Kids == nil {
		n.Kids = make(map[string]*SigNode)
	}
	k, ok := n.Kids[name]
	if !ok {
		k = &SigNode{}
		n.Kids[name] = k
	}
	return k
}

// extend walks (creating) the trie along path and returns the last node.
func (n *SigNode) extend(path []string) *SigNode {
	cur := n
	for _, s := range path {
		cur = cur.child(s)
	}
	return cur
}

// normalize drops children below All nodes (they are redundant — the
// whole subtree is delivered anyway), making the serialization
// canonical so structurally equal signatures get equal keys.
func (n *SigNode) normalize() {
	if n.All {
		n.Kids = nil
		return
	}
	for _, k := range n.Kids {
		k.normalize()
	}
}

// key serializes the trie canonically (children sorted by name, "•" for
// All), for grouping plans with identical routing behavior.
func (n *SigNode) key(b *strings.Builder) {
	if n.All {
		b.WriteString("•")
		return
	}
	names := make([]string, 0, len(n.Kids))
	for name := range n.Kids {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("{")
	for i, name := range names {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(name)
		n.Kids[name].key(b)
	}
	b.WriteString("}")
}

// paths renders the signature as sorted rooted paths, one per leaf; a
// trailing " •" marks a full-subtree position. The root itself renders
// as "/ •" when the plan consumes the entire document.
func (n *SigNode) paths() []string {
	var out []string
	var walk func(node *SigNode, prefix string)
	walk = func(node *SigNode, prefix string) {
		if node.All {
			p := prefix
			if p == "" {
				p = "/"
			}
			out = append(out, p+" •")
			return
		}
		if len(node.Kids) == 0 {
			if prefix != "" {
				out = append(out, prefix)
			}
			return
		}
		for name, kid := range node.Kids {
			walk(kid, prefix+"/"+name)
		}
	}
	walk(n, "")
	sort.Strings(out)
	return out
}

// buildSignature computes the plan's signature trie, canonical key, and
// predicted peak buffer bytes. Called once at the end of Compile.
func (p *Plan) buildSignature() {
	root := &SigNode{}
	addScopeSig(root, p.root)
	root.normalize()
	markDropText(root, p.schema, dtd.DocumentVar)
	var b strings.Builder
	root.key(&b)
	p.sig = root
	p.sigKey = b.String()
	p.prune = sigToPrune(root)
	p.predicted = predictPeakBytes(p.root)
}

// markDropText fills each spine node's DropText bit from the schema:
// text at a position is droppable when the position's production is
// mixed (text always legal, never consumed at a spine position) or is
// the synthetic document production (text outside the root element is
// ignored by the engine). DropText is a pure function of (schema,
// position), so plans grouped by equal signature keys agree on it; it
// does not participate in the key.
func markDropText(n *SigNode, schema *dtd.Schema, elem string) {
	if n.All {
		return
	}
	if prod, ok := schema.Production(elem); ok {
		n.DropText = prod.Mixed || elem == dtd.DocumentVar
	}
	for name, kid := range n.Kids {
		markDropText(kid, schema, name)
	}
}

// sigToPrune mirrors a signature trie as a scanner prune trie
// (sax.PruneNode), so batched scans can prune skippable subtrees at the
// byte level instead of routing their tokens downstream.
func sigToPrune(n *SigNode) *sax.PruneNode {
	p := &sax.PruneNode{All: n.All}
	if len(n.Kids) > 0 {
		p.Kids = make(map[string]*sax.PruneNode, len(n.Kids))
		for k, v := range n.Kids {
			p.Kids[k] = sigToPrune(v)
		}
	}
	return p
}

// addScopeSig records everything one scope observes: its buffer tree,
// its watcher paths, and — recursively — its on-handlers' children.
// n is the signature node of the scope's own element.
func addScopeSig(n *SigNode, s *scopeSpec) {
	if s.bufTree != nil {
		addBufTreeSig(n, s.bufTree)
	}
	for _, w := range s.watchers {
		addWatcherSig(n, w)
	}
	for _, h := range s.handlers {
		if h.kind != hOn {
			continue // on-first bodies run over buffers already recorded
		}
		child := n.child(h.name)
		if h.child != nil {
			addScopeSig(child, h.child)
		}
		if h.simple != nil {
			if h.simple.copySub {
				child.All = true
			}
			for _, w := range h.simple.watchers {
				addWatcherSig(child, w)
			}
		}
	}
}

// addBufTreeSig maps a pruned buffer tree into the signature: marked
// nodes need their whole subtree, unmarked tree positions only tags.
func addBufTreeSig(n *SigNode, bt *bufTreeNode) {
	if bt.mark {
		n.All = true
		return
	}
	for name, kid := range bt.kids {
		addBufTreeSig(n.child(name), kid)
	}
}

// addWatcherSig maps one flag watcher into the signature. An existence
// watcher is settled by the target's start tag (a spine position); a
// value comparison accumulates the target's entire text content, so the
// target subtree must be delivered.
func addWatcherSig(n *SigNode, w *watcherSpec) {
	leaf := n.extend(w.path)
	if w.kind == wCmp {
		leaf.All = true
	}
}

// Cost constants for the static peak-buffer prediction. The prediction
// is a coarse, deterministic estimate in nominal bytes — comparable
// across plans, not a guarantee about any particular document: a
// tags-only path costs little, a full-subtree buffer a lot, and
// document-lifetime buffers (which accumulate until end of stream) are
// weighted far above per-instance buffers (freed per element).
const (
	predSpineStepBytes = 64
	predSubtreeBytes   = 4096
	predDocScopeFactor = 16
)

// predictPeakBytes estimates the plan's peak buffer bytes from its
// buffer trees alone. A fully streaming plan predicts 0.
func predictPeakBytes(root *scopeSpec) int64 {
	var total int64
	var walk func(s *scopeSpec)
	walk = func(s *scopeSpec) {
		if s.bufTree != nil {
			cost := bufTreeCost(s.bufTree)
			if s.Var == "$ROOT" {
				cost *= predDocScopeFactor
			}
			total += cost
		}
		for _, h := range s.handlers {
			if h.child != nil {
				walk(h.child)
			}
		}
	}
	walk(root)
	return total
}

func bufTreeCost(n *bufTreeNode) int64 {
	if n.mark {
		return predSubtreeBytes
	}
	var cost int64
	for _, k := range n.kids {
		cost += predSpineStepBytes + bufTreeCost(k)
	}
	return cost
}

// Signature returns the plan's projected-path signature, built at
// Compile time. Callers must treat the trie as read-only; executions of
// the same plan share it.
func (p *Plan) Signature() *SigNode { return p.sig }

// SigKey returns a canonical serialization of the signature: two plans
// with equal keys make identical skip decisions at every stream
// position, so a multiplexer may route them as one group.
func (p *Plan) SigKey() string { return p.sigKey }

// Prune returns the plan's signature as a scanner prune trie, built once
// at Compile time; like the signature itself it is shared across
// executions and must be treated as read-only. Handing it to a batched
// scan (sax.Options.Prune) makes the scanner itself collapse subtrees
// the plan provably ignores into single SkipElement tokens — the same
// skip decisions a downstream router would make, minus the cost of
// tokenizing what gets thrown away.
func (p *Plan) Prune() *sax.PruneNode { return p.prune }

// PredictedPeakBytes returns the static estimate of the plan's peak
// buffer consumption (see BufferReport.PredictedPeakBytes).
func (p *Plan) PredictedPeakBytes() int64 { return p.predicted }

// skipSubtree is the engine half of selective fan-out: it processes a
// complete element subtree the router proved irrelevant to this plan in
// O(1) — the parent automaton steps over the element (preserving
// validation of the parent's content model and the punctuation events
// that drive on-first handlers), and nothing else happens. On-first
// handlers newly enabled by the step run immediately: the subtree is
// logically complete the moment it is skipped.
//
// The checks below are defensive: the router's skip decision comes from
// the plan's own Signature, so a relevant subtree reaching this path is
// a routing bug, reported rather than silently dropped.
//
// With st nil the engine validates the parent's step itself; otherwise
// it adopts the shared Validator's outcome, as start does.
func (e *engine) skipSubtree(name string, sym int32, st *Step) error {
	e.tokens++
	top := &e.frames[len(e.frames)-1]
	prevState := top.state
	var next int
	if st == nil || top.own {
		var ok bool
		if next, ok = top.prod.Auto.StepSym(prevState, sym); !ok {
			return errNotAllowed(name, top.prod, top.name)
		}
	} else {
		if st.Err != nil {
			return st.Err
		}
		prevState, next = st.Prev, st.Next
	}
	top.state = next

	if top.copying || len(top.captures) > 0 || len(top.accs) > 0 {
		return &RunError{Msg: "selective fan-out skipped <" + name + "> inside a consumed subtree"}
	}
	for _, fp := range top.fills {
		if fp.tree.kid(sym) != nil {
			return &RunError{Msg: "selective fan-out skipped buffered subtree <" + name + ">"}
		}
	}
	for _, wp := range top.watch {
		if wp.spec().syms[wp.pathIdx] == sym {
			return &RunError{Msg: "selective fan-out skipped watched subtree <" + name + ">"}
		}
	}
	if top.scope != nil {
		rt := top.scope
		spec := rt.spec
		if spec.onHandler(sym) >= 0 {
			return &RunError{Msg: "selective fan-out skipped handled subtree <" + name + ">"}
		}
		if !spec.prod.Mixed {
			for i, h := range spec.handlers {
				if h.kind != hOnFirst || rt.fired[i] || !h.pastTable[next] || h.pastTable[prevState] {
					continue
				}
				rt.fired[i] = true
				if err := e.runExec(h.body, &execEnv{eng: e}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
