// Package cfg builds control flowgraphs for lang programs.
//
// The flowgraph follows the paper's conventions: one node per simple
// statement or predicate, a unique Entry and a unique Exit node, and —
// for the Ferrante–Ottenstein–Warren control dependence construction —
// a virtual Entry→Exit edge, which makes "top-level" statements
// control dependent on the dummy entry predicate (node 0 in the
// paper's figures).
//
// Compound statements contribute only their predicate node (the if or
// while condition, the switch tag); their bodies contribute their own
// nodes. Jump statements (goto, break, continue, return) each get a
// node with a single successor: the jump target. The conditional-jump
// idiom "if (e) goto L" therefore becomes a predicate node whose true
// edge leads to a goto node; both carry the same source line, matching
// the paper's single-node rendering of conditional jumps.
package cfg

import (
	"fmt"
	"sort"
	"sync"

	"jumpslice/internal/lang"
)

// Kind classifies flowgraph nodes.
type Kind int

// Node kinds.
const (
	KindEntry Kind = iota
	KindExit
	KindAssign
	KindRead
	KindWrite
	KindPredicate // if or while condition
	KindSwitch    // switch tag (a multi-way predicate)
	KindGoto
	KindBreak
	KindContinue
	KindReturn
	KindSkip // empty statement; no effect
	KindCall // procedure call statement
)

var kindNames = [...]string{
	KindEntry: "entry", KindExit: "exit", KindAssign: "assign",
	KindRead: "read", KindWrite: "write", KindPredicate: "predicate",
	KindSwitch: "switch", KindGoto: "goto", KindBreak: "break",
	KindContinue: "continue", KindReturn: "return", KindSkip: "skip",
	KindCall: "call",
}

// String returns the kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsJump reports whether the kind is one of the paper's jump
// statements.
func (k Kind) IsJump() bool {
	switch k {
	case KindGoto, KindBreak, KindContinue, KindReturn:
		return true
	}
	return false
}

// IsPredicate reports whether the node kind branches (if/while
// condition or switch tag).
func (k Kind) IsPredicate() bool { return k == KindPredicate || k == KindSwitch }

// Edge is a labeled control flow edge. Labels are "T"/"F" for
// predicate nodes, the case values (or "default") for switch nodes,
// "" otherwise.
type Edge struct {
	From, To int
	Label    string
}

// Node is a flowgraph node.
type Node struct {
	ID   int
	Kind Kind
	// Stmt is the originating statement; nil for Entry and Exit. For
	// predicates it is the enclosing IfStmt/WhileStmt/SwitchStmt.
	Stmt lang.Stmt
	// Line is the source line of the statement, or 0 for Entry/Exit.
	Line int
	// Labels are the goto labels attached to this node's statement.
	Labels []string
	// Target is the jump target node for jump kinds, nil otherwise.
	// A goto's target is the labeled node; break targets the statement
	// after the loop/switch; continue targets the loop predicate;
	// return targets Exit.
	Target *Node

	Out []Edge
	In  []int
}

// String renders the node for diagnostics: "5:predicate if (x > 0)".
func (n *Node) String() string {
	switch n.Kind {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	}
	return fmt.Sprintf("%d:%s %s", n.Line, n.Kind, lang.StmtString(n.Stmt))
}

// Succs returns the IDs of the node's successors in edge order.
func (n *Node) Succs() []int {
	out := make([]int, len(n.Out))
	for i, e := range n.Out {
		out[i] = e.To
	}
	return out
}

// FirstStmt is the node ID of the program's first statement. Build
// creates Entry (ID 0) and Exit (ID 1) first, then one node per
// node-bearing statement — every statement except label wrappers and
// non-empty blocks — in preorder, a compound before its branches. The
// statement with preorder ordinal k therefore has node ID FirstStmt+k,
// and Rebind, which binds each statement to the node of the same
// position, keeps that numbering. lang.FormatProjection walks
// statements in the same order, so a slice prints from its node set
// with no statement-to-node lookups.
const FirstStmt = 2

// Graph is a control flowgraph.
type Graph struct {
	Prog  *lang.Program
	Nodes []*Node
	Entry *Node
	Exit  *Node

	stmtNode map[lang.Stmt]*Node
	stmtOnce sync.Once
	// LabelNode maps each goto label to its target node's ID. It is a
	// function of shape alone, so every graph Rebind derives from a
	// built one shares the built one's map; it is never written after
	// Build returns.
	LabelNode map[string]int
	// spans holds the statement spans Rebind skips shared statements
	// with, shared the same way.
	spans *spans
	// edges counts the flow edges, every node's Out summed.
	edges int
	// arena is the contiguous backing Build carves nodes from;
	// outArena/inArena back the initial Out/In slices the same way
	// (two slots per node; wider fan-out spills to the allocator).
	arena    []Node
	outArena []Edge
	inArena  []int
}

// takeOut carves an empty capacity-2 edge slice from the arena, or
// returns nil (letting append allocate) once it is exhausted.
func (g *Graph) takeOut() []Edge {
	if len(g.outArena)+2 > cap(g.outArena) {
		return nil
	}
	off := len(g.outArena)
	g.outArena = g.outArena[:off+2]
	return g.outArena[off : off : off+2]
}

func (g *Graph) takeIn() []int {
	if len(g.inArena)+2 > cap(g.inArena) {
		return nil
	}
	off := len(g.inArena)
	g.inArena = g.inArena[:off+2]
	return g.inArena[off : off : off+2]
}

// NodeFor returns the flowgraph node of a statement, or nil if the
// statement has none (blocks and label wrappers). For labeled
// statements it returns the inner statement's node.
func (g *Graph) NodeFor(s lang.Stmt) *Node {
	if s == nil {
		return nil
	}
	g.ensureStmtNode()
	return g.stmtNode[lang.Unlabel(s)]
}

// ensureStmtNode builds the statement→node index on first use. Build
// fills it eagerly (the builder itself needs it); Rebind leaves it
// nil because most rebound graphs are only ever queried by node ID,
// and reconstructing it here from Nodes is safe whenever someone does
// ask. The sync.Once makes the lazy build race-free for graphs shared
// across slicing goroutines.
func (g *Graph) ensureStmtNode() {
	g.stmtOnce.Do(func() {
		if g.stmtNode != nil {
			return
		}
		m := make(map[lang.Stmt]*Node, len(g.Nodes))
		for _, n := range g.Nodes {
			if n.Stmt != nil {
				m[n.Stmt] = n
			}
		}
		g.stmtNode = m
	})
}

// EntryOf returns the node control reaches when entering statement s:
// the statement's own node, the predicate node of a compound, or the
// first inner node of a block. Empty blocks own a skip node, so the
// result is never nil for a statement of a built program.
func (g *Graph) EntryOf(s lang.Stmt) *Node {
	g.ensureStmtNode()
	return g.entryOf(s)
}

func (g *Graph) entryOf(s lang.Stmt) *Node {
	switch s := s.(type) {
	case *lang.LabeledStmt:
		return g.entryOf(s.Stmt)
	case *lang.BlockStmt:
		if len(s.List) == 0 {
			return g.stmtNode[s]
		}
		return g.entryOf(s.List[0])
	default:
		return g.stmtNode[s]
	}
}

// NumNodes returns the node count (implements the dom.Directed
// interface together with Succs/Preds).
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the flow edge count: the sum over nodes of
// len(Out), kept as edges are added.
func (g *Graph) NumEdges() int { return g.edges }

// Succs returns the successor IDs of node i.
func (g *Graph) Succs(i int) []int { return g.Nodes[i].Succs() }

// Preds returns the predecessor IDs of node i.
func (g *Graph) Preds(i int) []int { return g.Nodes[i].In }

// Jumps returns all jump nodes in lexical (source line, then ID)
// order.
func (g *Graph) Jumps() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind.IsJump() {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// NodesAtLine returns all nodes whose statement begins on the given
// source line, in ID order.
func (g *Graph) NodesAtLine(line int) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Line == line {
			out = append(out, n)
		}
	}
	return out
}

// Reachable reports, for each node ID, whether the node is reachable
// from Entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Nodes))
	var stack []int
	stack = append(stack, g.Entry.ID)
	seen[g.Entry.ID] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Nodes[id].Out {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// CanReachExit returns, for each node, whether Exit is reachable from
// it. Nodes for which this is false sit on inescapable cycles
// (infinite loops); postdominance is undefined for them.
func (g *Graph) CanReachExit() []bool {
	ok := make([]bool, len(g.Nodes))
	var stack []int
	stack = append(stack, g.Exit.ID)
	ok[g.Exit.ID] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Nodes[id].In {
			if !ok[p] {
				ok[p] = true
				stack = append(stack, p)
			}
		}
	}
	return ok
}

func (g *Graph) addNode(kind Kind, s lang.Stmt) *Node {
	var n *Node
	// Nodes are carved out of the arena Build pre-sized, one malloc
	// for the whole graph instead of one per statement. If the count
	// estimate was short (it never is for parsed programs), spill to
	// individual allocations — pointers into the arena stay valid.
	if len(g.arena) < cap(g.arena) {
		g.arena = g.arena[:len(g.arena)+1]
		n = &g.arena[len(g.arena)-1]
	} else {
		n = &Node{}
	}
	n.ID = len(g.Nodes)
	n.Kind = kind
	n.Stmt = s
	if s != nil {
		n.Line = s.Pos().Line
	}
	g.Nodes = append(g.Nodes, n)
	if s != nil {
		g.stmtNode[s] = n
	}
	return n
}

// countNodes predicts how many flowgraph nodes createNodes will make
// for the program: every statement except label wrappers and
// non-empty blocks bears a node, and empty blocks get a skip node.
func countNodes(p *lang.Program) int {
	count := 0
	lang.WalkProgram(p, func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.LabeledStmt:
		case *lang.BlockStmt:
			if len(s.List) == 0 {
				count++
			}
		default:
			count++
		}
	})
	return count
}

// AddEdge appends an extra labeled edge to a built graph. Its intended
// use is constructing the augmented flowgraph of Ball–Horwitz and
// Choi–Ferrante: one additional edge from every jump statement to its
// immediate lexical successor.
func (g *Graph) AddEdge(from, to *Node, label string) { g.addEdge(from, to, label) }

func (g *Graph) addEdge(from, to *Node, label string) {
	if from.Out == nil {
		from.Out = g.takeOut()
	}
	if to.In == nil {
		to.In = g.takeIn()
	}
	from.Out = append(from.Out, Edge{From: from.ID, To: to.ID, Label: label})
	to.In = append(to.In, from.ID)
	g.edges++
}

// Build constructs the flowgraph of a program. It returns an error
// only for structural problems the parser cannot detect; a
// successfully parsed program always builds.
func Build(p *lang.Program) (*Graph, error) {
	n := countNodes(p) + 2 // + Entry, Exit
	g := &Graph{
		Prog:      p,
		Nodes:     make([]*Node, 0, n),
		stmtNode:  make(map[lang.Stmt]*Node, n),
		LabelNode: map[string]int{},
		spans:     &spans{},
		arena:     make([]Node, 0, n),
		outArena:  make([]Edge, 0, 2*n),
		inArena:   make([]int, 0, 2*n),
	}
	b := &builder{g: g}

	g.Entry = g.addNode(KindEntry, nil)
	g.Exit = g.addNode(KindExit, nil)

	// Pass 1: create a node for every node-bearing statement, in
	// lexical order so node IDs follow source order (the paper's
	// preorder tie-breaks then match line order) and statement
	// ordinal k gets ID FirstStmt+k.
	for _, s := range p.Body {
		b.createNodes(s)
	}

	// Pass 2: wire edges. The continuation of the whole program is
	// Exit; there is no enclosing loop or switch.
	next := g.Exit
	for i := len(p.Body) - 1; i >= 0; i-- {
		next = b.wire(p.Body[i], next, nil, nil)
	}
	g.addEdge(g.Entry, next, "T")
	// Virtual edge for the dummy entry predicate (paper's node 0): it
	// makes every always-executed node control dependent on Entry.
	g.addEdge(g.Entry, g.Exit, "F")

	// Resolve goto targets.
	for _, pg := range b.gotos {
		id, ok := g.LabelNode[pg.stmt.Label]
		if !ok {
			return nil, fmt.Errorf("cfg: goto to unknown label %q at line %d", pg.stmt.Label, pg.node.Line)
		}
		target := g.Nodes[id]
		pg.node.Target = target
		g.addEdge(pg.node, target, "")
	}
	return g, nil
}

// MustBuild is Build but panics on error, for the known-good corpus.
func MustBuild(p *lang.Program) *Graph {
	g, err := Build(p)
	if err != nil {
		panic("cfg.MustBuild: " + err.Error())
	}
	return g
}

type pendingGoto struct {
	node *Node
	stmt *lang.GotoStmt
}

type builder struct {
	g     *Graph
	gotos []pendingGoto
}

// createNodes allocates nodes for s and its descendants in lexical
// order, and registers label targets.
func (b *builder) createNodes(s lang.Stmt) {
	g := b.g
	switch s := s.(type) {
	case nil:
	case *lang.AssignStmt:
		g.addNode(KindAssign, s)
	case *lang.ReadStmt:
		g.addNode(KindRead, s)
	case *lang.WriteStmt:
		g.addNode(KindWrite, s)
	case *lang.GotoStmt:
		n := g.addNode(KindGoto, s)
		b.gotos = append(b.gotos, pendingGoto{node: n, stmt: s})
	case *lang.BreakStmt:
		g.addNode(KindBreak, s)
	case *lang.ContinueStmt:
		g.addNode(KindContinue, s)
	case *lang.ReturnStmt:
		g.addNode(KindReturn, s)
	case *lang.EmptyStmt:
		g.addNode(KindSkip, s)
	case *lang.CallStmt:
		g.addNode(KindCall, s)
	case *lang.IfStmt:
		g.addNode(KindPredicate, s)
		b.createNodes(s.Then)
		b.createNodes(s.Else)
	case *lang.WhileStmt:
		g.addNode(KindPredicate, s)
		b.createNodes(s.Body)
	case *lang.SwitchStmt:
		g.addNode(KindSwitch, s)
		for _, c := range s.Cases {
			for _, st := range c.Body {
				b.createNodes(st)
			}
		}
	case *lang.BlockStmt:
		if len(s.List) == 0 {
			// An empty block gets a skip node so it can carry a label
			// and participate in fall-through.
			g.addNode(KindSkip, s)
			return
		}
		for _, st := range s.List {
			b.createNodes(st)
		}
	case *lang.LabeledStmt:
		b.createNodes(s.Stmt)
		target := b.entry(s.Stmt)
		target.Labels = append(target.Labels, s.Label)
		g.LabelNode[s.Label] = target.ID
	default:
		panic(fmt.Sprintf("cfg: unknown statement %T", s))
	}
}

// entry returns the node control reaches when entering s. Pass 1
// guarantees every statement (transitively) owns a node, so this never
// falls through to a continuation.
func (b *builder) entry(s lang.Stmt) *Node { return b.g.EntryOf(s) }

// wire adds the control flow edges for s, given the node control
// reaches after s completes normally (next), the break target (brk)
// and the continue target (cont). It returns the entry node of s so
// callers can chain statement sequences.
func (b *builder) wire(s lang.Stmt, next, brk, cont *Node) *Node {
	g := b.g
	switch s := s.(type) {
	case *lang.AssignStmt, *lang.ReadStmt, *lang.WriteStmt, *lang.CallStmt, *lang.EmptyStmt:
		n := g.stmtNode[s]
		g.addEdge(n, next, "")
		return n
	case *lang.GotoStmt:
		// Edge added after label resolution in Build.
		return g.stmtNode[s]
	case *lang.BreakStmt:
		n := g.stmtNode[s]
		n.Target = brk
		g.addEdge(n, brk, "")
		return n
	case *lang.ContinueStmt:
		n := g.stmtNode[s]
		n.Target = cont
		g.addEdge(n, cont, "")
		return n
	case *lang.ReturnStmt:
		n := g.stmtNode[s]
		n.Target = g.Exit
		g.addEdge(n, g.Exit, "")
		return n
	case *lang.IfStmt:
		n := g.stmtNode[s]
		thenEntry := b.wire(s.Then, next, brk, cont)
		g.addEdge(n, thenEntry, "T")
		if s.Else != nil {
			elseEntry := b.wire(s.Else, next, brk, cont)
			g.addEdge(n, elseEntry, "F")
		} else {
			g.addEdge(n, next, "F")
		}
		return n
	case *lang.WhileStmt:
		n := g.stmtNode[s]
		// Inside the body: break exits the loop, continue re-tests the
		// condition (C semantics for while loops).
		bodyEntry := b.wire(s.Body, n, next, n)
		g.addEdge(n, bodyEntry, "T")
		g.addEdge(n, next, "F")
		return n
	case *lang.SwitchStmt:
		return b.wireSwitch(s, next, cont)
	case *lang.BlockStmt:
		if len(s.List) == 0 {
			n := g.stmtNode[s]
			g.addEdge(n, next, "")
			return n
		}
		after := next
		for i := len(s.List) - 1; i >= 0; i-- {
			after = b.wire(s.List[i], after, brk, cont)
		}
		return after
	case *lang.LabeledStmt:
		return b.wire(s.Stmt, next, brk, cont)
	}
	panic(fmt.Sprintf("cfg: unknown statement %T", s))
}

// wireSwitch wires a C-style switch: the tag node dispatches to each
// case's entry; case bodies fall through to the next case; break exits
// past the switch; continue passes through to the enclosing loop.
func (b *builder) wireSwitch(s *lang.SwitchStmt, next, cont *Node) *Node {
	g := b.g
	n := g.stmtNode[s]

	// Wire case bodies back to front so each body knows its
	// fall-through continuation (the entry of the following case's
	// body, or next after the last case).
	entries := make([]*Node, len(s.Cases))
	fall := next
	for i := len(s.Cases) - 1; i >= 0; i-- {
		body := s.Cases[i].Body
		entry := fall
		for j := len(body) - 1; j >= 0; j-- {
			entry = b.wire(body[j], entry, next, cont)
		}
		entries[i] = entry
		fall = entry
	}

	// Dispatch edges from the tag.
	hasDefault := false
	for i, c := range s.Cases {
		if c.IsDefault {
			hasDefault = true
			g.addEdge(n, entries[i], "default")
			continue
		}
		for _, v := range c.Values {
			g.addEdge(n, entries[i], fmt.Sprintf("%d", v))
		}
	}
	if !hasDefault {
		g.addEdge(n, next, "default")
	}
	return n
}
