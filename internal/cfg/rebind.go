package cfg

import (
	"fmt"
	"slices"

	"jumpslice/internal/lang"
)

// rebindMismatch is the reason Rebind gives when p agrees with prev's
// program but not with prev's node table.
const rebindMismatch = "flowgraph rebind mismatch"

// Rebind builds the flowgraph of p by rebinding prev's node table
// onto p's statements instead of re-running the builder, and is the
// incremental engine's one decision whether an edit kept the
// flowgraph. It walks prev.Prog and p in lockstep, in the order Build
// allocates nodes, and compares at each statement position everything
// the graph is made of: statement-sequence lengths, label chains,
// statement kinds, goto labels, else presence, case counts and case
// values. No edge depends on anything else (an expression never does),
// so when they all agree the graphs are identical except for the
// statement and line each node carries.
//
// On success edited lists, ascending, the IDs of the nodes whose
// statement changed an expression (lang.ExprEqual) or its defined
// variable, and defChanged reports that some edited node defines a
// different variable (lang.Def): the edits that move reaching
// definitions. Source positions are not compared; a statement that
// only moved lines is rebound, not edited. Node IDs follow preorder,
// so edited is in preorder too.
//
// On the first difference Rebind stops and returns its reason as
// mismatch, and the caller builds from scratch. The walk also holds p
// to prev's node table: each position must be free and of the
// statement's kind, each label wrapper must re-attach the label prev's
// node carries, and, after the walk, every node and label must have
// been claimed and every goto must resolve to its previous target. A
// donor graph that disagrees with its own program fails these as
// "flowgraph rebind mismatch".
//
// Nodes are immutable once a graph is built, so the rebound graph
// shares with prev every node whose statement p kept (the same
// statement value, which a splice such as incremental.SpliceLine
// preserves outside the edited path) and whose jump target is shared
// too. Only the other nodes are copied, with their edge slices (Out,
// In) and label lists shared and capacity-clipped. A rebound graph
// must therefore never be extended with AddEdge. The statement→node
// index is left for NodeFor to build lazily; most rebound graphs are
// only ever queried by node ID.
func Rebind(prev *Graph, p *lang.Program) (g *Graph, edited []int, defChanged bool, mismatch string) {
	n := len(prev.Nodes)
	g = &Graph{
		Prog:      p,
		Nodes:     make([]*Node, n),
		LabelNode: make(map[string]*Node, len(prev.LabelNode)),
		edges:     prev.edges, // every node keeps its edges
	}
	copy(g.Nodes, prev.Nodes)

	r := &rebinder{g: g, next: 2} // Build creates Entry (0) and Exit (1) first
	if _, ok := r.list(prev.Prog.Body, p.Body); !ok {
		return nil, nil, false, r.mismatch
	}
	// Every node position and every label of the previous graph must
	// have been claimed (labelsSeen counts wrapper visits; label names
	// were checked against each node's list as they were seen).
	if r.next != n || r.labelsSeen != len(prev.LabelNode) {
		return nil, nil, false, rebindMismatch
	}
	// A jump whose target was copied must point at the copy, which
	// makes the jump itself a copy when it was shared; a label chain
	// (a labeled jump targeted by another) can take a few rounds.
	for changed := true; changed; {
		changed = false
		for i, nd := range g.Nodes {
			if nd.Target == nil || g.Nodes[nd.Target.ID] == nd.Target {
				continue
			}
			if nd == prev.Nodes[i] {
				nd = r.copyNode(nd)
				g.Nodes[i] = nd
			}
			nd.Target = g.Nodes[nd.Target.ID]
			changed = true
		}
	}
	for label, nd := range g.LabelNode {
		g.LabelNode[label] = g.Nodes[nd.ID]
	}
	g.Entry = g.Nodes[prev.Entry.ID]
	g.Exit = g.Nodes[prev.Exit.ID]
	// Each goto must resolve through the rebuilt label map to the node
	// its edge already points at.
	for _, gt := range r.gotos {
		target, ok := g.LabelNode[gt.stmt.Label]
		if !ok || gt.node.Target == nil || target.ID != gt.node.Target.ID {
			return nil, nil, false, rebindMismatch
		}
	}
	return g, r.edited, r.defChanged, ""
}

// rebinder pairs p's statements with prev's node positions in the
// exact order builder.createNodes allocates them.
type rebinder struct {
	g          *Graph
	next       int
	labelsSeen int
	gotos      []pendingGoto
	edited     []int
	defChanged bool
	mismatch   string
	// labelAt counts labels attached per node so wrapper order can be
	// checked against the node's (shared) label list.
	labelAt map[int]int
	// free is the unused tail of the current block copied nodes are
	// carved from; blocks double from a small first one, so an edit
	// copying a handful of nodes allocates little and a rebind
	// copying every node allocates a few blocks.
	free  []Node
	block int // size of the last block
}

// fail records the reason the walk stops and returns false.
func (r *rebinder) fail(format string, args ...any) bool {
	r.mismatch = fmt.Sprintf(format, args...)
	return false
}

// take claims the next node position for s, which replaces o there,
// verifying the kind, and binds s to it — sharing the donor node when
// it already holds s. changed marks the node edited.
func (r *rebinder) take(kind Kind, o, s lang.Stmt, changed bool) (*Node, bool) {
	if r.next >= len(r.g.Nodes) || r.g.Nodes[r.next].Kind != kind {
		return nil, r.fail(rebindMismatch)
	}
	n := r.g.Nodes[r.next]
	if line := s.Pos().Line; n.Stmt != s || n.Line != line {
		n = r.copyNode(n)
		n.Stmt = s
		n.Line = line
		r.g.Nodes[r.next] = n
	}
	if changed {
		r.edited = append(r.edited, r.next)
		r.defChanged = r.defChanged || lang.Def(o) != lang.Def(s)
	}
	r.next++
	return n, true
}

// copyNode returns a private copy of a donor node, its edge and label
// slices shared but capacity-clipped.
func (r *rebinder) copyNode(pn *Node) *Node {
	if len(r.free) == 0 {
		r.block = min(max(2*r.block, 4), len(r.g.Nodes))
		r.free = make([]Node, r.block)
	}
	nn := &r.free[0]
	r.free = r.free[1:]
	*nn = *pn
	nn.Out = pn.Out[:len(pn.Out):len(pn.Out)]
	nn.In = pn.In[:len(pn.In):len(pn.In)]
	nn.Labels = pn.Labels[:len(pn.Labels):len(pn.Labels)]
	return nn
}

// list rebinds the statement list s, which stands where prev's program
// has o, and returns the entry node of its first statement.
func (r *rebinder) list(o, s []lang.Stmt) (*Node, bool) {
	if len(o) != len(s) {
		return nil, r.fail("statement sequence length %d vs %d", len(o), len(s))
	}
	var entry *Node
	for i := range s {
		n, ok := r.walk(o[i], s[i])
		if !ok {
			return nil, false
		}
		if i == 0 {
			entry = n
		}
	}
	return entry, true
}

// labelChain lists s's label wrappers, outermost first.
func labelChain(s lang.Stmt) []string {
	var labels []string
	for l, ok := s.(*lang.LabeledStmt); ok; l, ok = l.Stmt.(*lang.LabeledStmt) {
		labels = append(labels, l.Label)
	}
	return labels
}

// walk rebinds s's subtree where prev's program has o and returns
// s's entry node — the node control reaches when entering s — which
// is what a label wrapper attaches to. The label chains are compared
// first: a label rename retargets gotos, so it is a shape change, not
// an edit. Each case compares o with s only when they are not the same
// statement, which a splice shares off the edited path.
func (r *rebinder) walk(o, s lang.Stmt) (*Node, bool) {
	ol, oLabeled := o.(*lang.LabeledStmt)
	sl, sLabeled := s.(*lang.LabeledStmt)
	for (oLabeled || sLabeled) && ol != sl {
		if !oLabeled || !sLabeled || ol.Label != sl.Label {
			return nil, r.fail("line %d: labels %v vs %v", lang.Unlabel(s).Pos().Line, labelChain(o), labelChain(s))
		}
		ol, oLabeled = ol.Stmt.(*lang.LabeledStmt)
		sl, sLabeled = sl.Stmt.(*lang.LabeledStmt)
	}
	switch o := o.(type) {
	case nil:
		if s == nil {
			return nil, true
		}
	case *lang.AssignStmt:
		if t, ok := s.(*lang.AssignStmt); ok {
			return r.take(KindAssign, o, t, o != t && (o.Name != t.Name || !lang.ExprEqual(o.Value, t.Value)))
		}
	case *lang.ReadStmt:
		if t, ok := s.(*lang.ReadStmt); ok {
			return r.take(KindRead, o, t, o.Name != t.Name)
		}
	case *lang.WriteStmt:
		if t, ok := s.(*lang.WriteStmt); ok {
			return r.take(KindWrite, o, t, o != t && !lang.ExprEqual(o.Value, t.Value))
		}
	case *lang.ReturnStmt:
		if t, ok := s.(*lang.ReturnStmt); ok {
			return r.take(KindReturn, o, t, o != t && !lang.ExprEqual(o.Value, t.Value))
		}
	case *lang.GotoStmt:
		t, ok := s.(*lang.GotoStmt)
		if !ok {
			break
		}
		if o.Label != t.Label {
			return nil, r.fail("line %d: goto target %s vs %s", t.Pos().Line, o.Label, t.Label)
		}
		n, ok := r.take(KindGoto, o, t, false)
		if ok {
			r.gotos = append(r.gotos, pendingGoto{node: n, stmt: t})
		}
		return n, ok
	case *lang.BreakStmt:
		if _, ok := s.(*lang.BreakStmt); ok {
			return r.take(KindBreak, o, s, false)
		}
	case *lang.ContinueStmt:
		if _, ok := s.(*lang.ContinueStmt); ok {
			return r.take(KindContinue, o, s, false)
		}
	case *lang.EmptyStmt:
		if _, ok := s.(*lang.EmptyStmt); ok {
			return r.take(KindSkip, o, s, false)
		}
	case *lang.BlockStmt:
		t, ok := s.(*lang.BlockStmt)
		if !ok {
			break
		}
		entry, ok := r.list(o.List, t.List)
		if ok && len(o.List) == 0 {
			return r.take(KindSkip, o, t, false)
		}
		return entry, ok
	case *lang.IfStmt:
		t, ok := s.(*lang.IfStmt)
		if !ok {
			break
		}
		if (o.Else == nil) != (t.Else == nil) {
			return nil, r.fail("line %d: else branch added or removed", t.Pos().Line)
		}
		n, ok := r.take(KindPredicate, o, t, o != t && !lang.ExprEqual(o.Cond, t.Cond))
		if !ok {
			return nil, false
		}
		if _, ok := r.walk(o.Then, t.Then); !ok {
			return nil, false
		}
		if _, ok := r.walk(o.Else, t.Else); !ok {
			return nil, false
		}
		return n, true
	case *lang.WhileStmt:
		t, ok := s.(*lang.WhileStmt)
		if !ok {
			break
		}
		n, ok := r.take(KindPredicate, o, t, o != t && !lang.ExprEqual(o.Cond, t.Cond))
		if !ok {
			return nil, false
		}
		if _, ok := r.walk(o.Body, t.Body); !ok {
			return nil, false
		}
		return n, true
	case *lang.SwitchStmt:
		t, ok := s.(*lang.SwitchStmt)
		if !ok {
			break
		}
		if len(o.Cases) != len(t.Cases) {
			return nil, r.fail("line %d: case count %d vs %d", t.Pos().Line, len(o.Cases), len(t.Cases))
		}
		for i, oc := range o.Cases {
			if tc := t.Cases[i]; oc.IsDefault != tc.IsDefault || !slices.Equal(oc.Values, tc.Values) {
				return nil, r.fail("line %d: case arm %d labels differ", t.Pos().Line, i)
			}
		}
		n, ok := r.take(KindSwitch, o, t, o != t && !lang.ExprEqual(o.Tag, t.Tag))
		if !ok {
			return nil, false
		}
		for i, oc := range o.Cases {
			if _, ok := r.list(oc.Body, t.Cases[i].Body); !ok {
				return nil, false
			}
		}
		return n, true
	case *lang.LabeledStmt:
		target, ok := r.walk(o.Stmt, s.(*lang.LabeledStmt).Stmt)
		if !ok {
			return nil, false
		}
		if target == nil {
			return nil, r.fail(rebindMismatch)
		}
		// The node's label list is shared with prev; the wrapper chain
		// must re-attach the same labels in the same order.
		if r.labelAt == nil {
			r.labelAt = make(map[int]int)
		}
		i := r.labelAt[target.ID]
		if i >= len(target.Labels) || target.Labels[i] != o.Label {
			return nil, r.fail(rebindMismatch)
		}
		r.labelAt[target.ID] = i + 1
		r.labelsSeen++
		r.g.LabelNode[o.Label] = target
		return target, true
	default:
		return nil, r.fail("line %d: unhandled statement %T", o.Pos().Line, o)
	}
	return nil, r.fail("line %d: statement kind %T vs %T", s.Pos().Line, o, s)
}
