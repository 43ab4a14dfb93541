package cfg

import "jumpslice/internal/lang"

// Rebind builds the flowgraph of p by rebinding prev's node table
// onto p's statements instead of re-running the builder. It is the
// incremental engine's fast path for a same-shape edit: edges, jump
// targets and label attachments are structural, so when p has exactly
// the statement shape of prev's program, the graphs are identical
// except for the Stmt pointers and line numbers each node carries.
//
// Rebind re-verifies the shape claim as it walks: every node position
// must get a statement of the matching kind, label wrappers must
// attach the same labels to the same node IDs as before, and every
// goto must resolve to its previous target. Any inconsistency returns
// ok=false and the caller falls back to a full Build — like the AST
// differ, Rebind degrades to a slower run, never to a wrong graph.
// (Case values and branch arity are the differ's responsibility: a
// changed case value relabels switch edges without moving any node,
// which the differ rejects as a shape mismatch before Rebind runs.)
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
func Rebind(prev *Graph, p *lang.Program) (*Graph, bool) {
	n := len(prev.Nodes)
	g := &Graph{
		Prog:      p,
		Nodes:     make([]*Node, n),
		LabelNode: make(map[string]*Node, len(prev.LabelNode)),
		edges:     prev.edges, // every node keeps its edges
	}
	copy(g.Nodes, prev.Nodes)

	r := &rebinder{g: g, next: 2} // Build creates Entry (0) and Exit (1) first
	for _, s := range p.Body {
		if _, ok := r.walk(s); !ok {
			return nil, false
		}
	}
	if r.next != n {
		return nil, false // fewer statements than node positions
	}
	// Every label of the previous graph must have been re-attached
	// (labelsSeen counts wrapper visits; label names were checked
	// against each node's list as they were seen).
	if r.labelsSeen != len(prev.LabelNode) {
		return nil, false
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
	// Belt and braces for jumps: each goto must resolve through the
	// rebuilt label map to the node its edge already points at.
	for _, gt := range r.gotos {
		target, ok := g.LabelNode[gt.stmt.Label]
		if !ok || gt.node.Target == nil || target.ID != gt.node.Target.ID {
			return nil, false
		}
	}
	return g, true
}

// rebinder pairs p's statements with prev's node positions in the
// exact order builder.createNodes allocates them.
type rebinder struct {
	g          *Graph
	next       int
	labelsSeen int
	gotos      []pendingGoto
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

// take claims the next node position for s, verifying the kind, and
// binds s to it — sharing the donor node when it already holds s.
func (r *rebinder) take(kind Kind, s lang.Stmt) (*Node, bool) {
	if r.next >= len(r.g.Nodes) {
		return nil, false
	}
	n := r.g.Nodes[r.next]
	if n.Kind != kind {
		return nil, false
	}
	if line := s.Pos().Line; n.Stmt != s || n.Line != line {
		n = r.copyNode(n)
		n.Stmt = s
		n.Line = line
		r.g.Nodes[r.next] = n
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

// walk rebinds s's subtree and returns s's entry node — the node
// control reaches when entering s — which is what a label wrapper
// attaches to.
func (r *rebinder) walk(s lang.Stmt) (*Node, bool) {
	switch s := s.(type) {
	case nil:
		return nil, true
	case *lang.AssignStmt:
		return r.take(KindAssign, s)
	case *lang.ReadStmt:
		return r.take(KindRead, s)
	case *lang.WriteStmt:
		return r.take(KindWrite, s)
	case *lang.GotoStmt:
		n, ok := r.take(KindGoto, s)
		if ok {
			r.gotos = append(r.gotos, pendingGoto{node: n, stmt: s})
		}
		return n, ok
	case *lang.BreakStmt:
		return r.take(KindBreak, s)
	case *lang.ContinueStmt:
		return r.take(KindContinue, s)
	case *lang.ReturnStmt:
		return r.take(KindReturn, s)
	case *lang.EmptyStmt:
		return r.take(KindSkip, s)
	case *lang.IfStmt:
		n, ok := r.take(KindPredicate, s)
		if !ok {
			return nil, false
		}
		if _, ok := r.walk(s.Then); !ok {
			return nil, false
		}
		if _, ok := r.walk(s.Else); !ok {
			return nil, false
		}
		return n, true
	case *lang.WhileStmt:
		n, ok := r.take(KindPredicate, s)
		if !ok {
			return nil, false
		}
		if _, ok := r.walk(s.Body); !ok {
			return nil, false
		}
		return n, true
	case *lang.SwitchStmt:
		n, ok := r.take(KindSwitch, s)
		if !ok {
			return nil, false
		}
		for _, c := range s.Cases {
			for _, st := range c.Body {
				if _, ok := r.walk(st); !ok {
					return nil, false
				}
			}
		}
		return n, true
	case *lang.BlockStmt:
		if len(s.List) == 0 {
			return r.take(KindSkip, s)
		}
		var entry *Node
		for i, st := range s.List {
			n, ok := r.walk(st)
			if !ok {
				return nil, false
			}
			if i == 0 {
				entry = n
			}
		}
		return entry, true
	case *lang.LabeledStmt:
		target, ok := r.walk(s.Stmt)
		if !ok || target == nil {
			return nil, false
		}
		// The node's label list is shared with prev; the wrapper chain
		// must re-attach the same labels in the same order.
		if r.labelAt == nil {
			r.labelAt = make(map[int]int)
		}
		i := r.labelAt[target.ID]
		if i >= len(target.Labels) || target.Labels[i] != s.Label {
			return nil, false
		}
		r.labelAt[target.ID] = i + 1
		r.labelsSeen++
		r.g.LabelNode[s.Label] = target
		return target, true
	default:
		return nil, false
	}
}
