package cfg

import (
	"fmt"
	"slices"
	"sync"

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
// been claimed and every goto walked must resolve to its previous
// target. A donor graph that disagrees with its own program fails
// these as "flowgraph rebind mismatch".
//
// Cost. A statement p shares with prev.Prog (the same value, as
// incremental.SpliceLine shares everything off the edited path) is not
// walked: when it is a simple statement or an if, while or switch
// whose node still holds it, the walk claims its whole node span and
// the labels inside in O(1), from two tables of statement spans that
// depend only on shape. Those tables are filled on a graph's first
// Rebind, so a cold Build never pays for them, and every graph rebound
// from it shares them, as it shares LabelNode. After a splice the walk
// therefore visits the edited line's ancestors and their siblings, and
// the post-walk work is proportional to the nodes it copied; what
// remains linear in the program is one copy of the node pointer table.
//
// Nodes are immutable once a graph is built, so the rebound graph
// shares with prev every node whose statement p kept and whose jump
// target is shared too. Only the other nodes are copied, with their
// edge slices (Out, In) and label lists shared and capacity-clipped. A
// rebound graph must therefore never be extended with AddEdge. The
// statement→node index is left for NodeFor to build lazily; most
// rebound graphs are only ever queried by node ID.
func Rebind(prev *Graph, p *lang.Program) (g *Graph, edited []int, defChanged bool, mismatch string) {
	n := len(prev.Nodes)
	prev.spans.fill(prev)
	g = &Graph{
		Prog:      p,
		Nodes:     make([]*Node, n),
		LabelNode: prev.LabelNode,
		spans:     prev.spans,
		edges:     prev.edges, // every node keeps its edges
	}
	copy(g.Nodes, prev.Nodes)

	r := &rebinder{g: g, next: 2} // Build creates Entry (0) and Exit (1) first
	if _, ok := r.list(prev.Prog.Body, p.Body); !ok {
		return nil, nil, false, r.mismatch
	}
	// Every node position and every label of the previous graph must
	// have been claimed (labelsSeen counts wrapper visits and the
	// labels inside skipped spans; label names were checked against
	// each node's list as they were seen).
	if r.next != n || r.labelsSeen != len(prev.LabelNode) {
		return nil, nil, false, rebindMismatch
	}
	// A jump whose target was copied must point at the copy, which
	// makes the jump itself a copy when it was shared. A jump has an
	// edge to its target, so the jumps to re-point are among the
	// copied nodes' predecessors; a jump copied here joins the list,
	// which covers label chains (a labeled jump targeted by another).
	for i := 0; i < len(r.copied); i++ {
		c := r.copied[i]
		for _, from := range g.Nodes[c].In {
			nd := g.Nodes[from]
			if nd.Target == nil || nd.Target.ID != c || nd.Target == g.Nodes[c] {
				continue
			}
			if nd == prev.Nodes[from] {
				nd = r.copyNode(nd)
				g.Nodes[from] = nd
			}
			nd.Target = g.Nodes[c]
		}
	}
	g.Entry = g.Nodes[prev.Entry.ID]
	g.Exit = g.Nodes[prev.Exit.ID]
	// Each goto walked must resolve through the label map to the node
	// its edge already points at.
	for _, gt := range r.gotos {
		target, ok := g.LabelNode[gt.stmt.Label]
		if !ok || gt.node.Target == nil || target != gt.node.Target.ID {
			return nil, nil, false, rebindMismatch
		}
	}
	return g, r.edited, r.defChanged, ""
}

// StmtEnd returns one past the last node ID of the statement whose
// own node is id: id+1 for a simple statement, and past every branch
// for an if, while or switch, whose nodes follow its own in preorder.
// A statement's nodes are exactly [id, StmtEnd(id)).
func (g *Graph) StmtEnd(id int) int {
	g.spans.fill(g)
	return g.spans.end[id]
}

// spans are the shape-only tables Rebind skips a shared statement
// with. Every graph rebound from a built graph shares the built
// graph's spans, filled once, on the first Rebind (or StmtEnd) of any
// of them.
type spans struct {
	once sync.Once
	// end[id] is StmtEnd(id) for the statement whose own node is id,
	// and id+1 for Entry and Exit.
	end []int
	// labels[id] counts the labels attached to the nodes before id.
	labels []int
}

// fill computes the tables from g, a graph of the shape they describe,
// by numbering g.Prog's statements as Build does.
func (t *spans) fill(g *Graph) {
	t.once.Do(func() {
		n := len(g.Nodes)
		t.end = make([]int, n)
		t.labels = make([]int, n+1)
		for i, nd := range g.Nodes {
			t.end[i] = i + 1
			t.labels[i+1] = t.labels[i] + len(nd.Labels)
		}
		next := FirstStmt
		var walk func(s lang.Stmt)
		walk = func(s lang.Stmt) {
			switch s := s.(type) {
			case nil:
			case *lang.LabeledStmt:
				walk(s.Stmt)
			case *lang.BlockStmt:
				if len(s.List) == 0 {
					next++ // the empty block's skip node
				}
				for _, st := range s.List {
					walk(st)
				}
			default:
				// The statement's own node, then its branches'.
				id := next
				next++
				switch s := s.(type) {
				case *lang.IfStmt:
					walk(s.Then)
					walk(s.Else)
				case *lang.WhileStmt:
					walk(s.Body)
				case *lang.SwitchStmt:
					for _, c := range s.Cases {
						for _, st := range c.Body {
							walk(st)
						}
					}
				}
				if id < n { // a donor disagreeing with its program fails the walk
					t.end[id] = min(next, n)
				}
			}
		}
		for _, s := range g.Prog.Body {
			walk(s)
		}
	})
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
	// copied lists the IDs of the nodes copied from prev.
	copied []int
	// labelAt counts labels attached per node so wrapper order can be
	// checked against the node's (shared) label list; a node with one
	// label needs no count.
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

// skip claims the node span of s, a statement p shares with prev's
// program, without walking it, and returns s's own node. It declines
// (false) unless the node at the next position holds s, which only a
// statement with a node of its own can (a simple statement, an if,
// while or switch, an empty block; never a label wrapper or a
// non-empty block); the caller then walks s.
func (r *rebinder) skip(s lang.Stmt) (*Node, bool) {
	id := r.next
	if id >= len(r.g.Nodes) || r.g.Nodes[id].Stmt != s {
		return nil, false
	}
	// The labels on s's own node belong to the wrappers around s (and
	// to those of blocks s begins), which the walk claims as it meets
	// them; the labels inside the span belong to wrappers inside s.
	t := r.g.spans
	r.next = t.end[id]
	r.labelsSeen += t.labels[r.next] - t.labels[id+1]
	return r.g.Nodes[id], true
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
// slices shared but capacity-clipped, and records its ID in copied.
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
	r.copied = append(r.copied, pn.ID)
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
		var n *Node
		ok := false
		if o[i] == s[i] { // shared: a run of these is skipped span by span
			n, ok = r.skip(s[i])
		}
		if !ok {
			if n, ok = r.walk(o[i], s[i]); !ok {
				return nil, false
			}
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
	if o == s {
		if n, ok := r.skip(s); ok {
			return n, true
		}
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
		// must re-attach the same labels in the same order. Labels are
		// unique, so a node with one label is claimed by its name.
		i := 0
		if len(target.Labels) > 1 {
			if r.labelAt == nil {
				r.labelAt = make(map[int]int)
			}
			i = r.labelAt[target.ID]
			r.labelAt[target.ID] = i + 1
		}
		if i >= len(target.Labels) || target.Labels[i] != o.Label {
			return nil, r.fail(rebindMismatch)
		}
		r.labelsSeen++
		return target, true
	default:
		return nil, r.fail("line %d: unhandled statement %T", o.Pos().Line, o)
	}
	return nil, r.fail("line %d: statement kind %T vs %T", s.Pos().Line, o, s)
}
