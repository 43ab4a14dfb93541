// Package dataflow implements the bit-vector dataflow analysis the
// slicer needs: reaching definitions, from which flow/data dependence
// edges are derived.
//
// Analyses run over the cfg.Graph. A "definition" is a (node,
// variable) pair: assignments and read statements define their target
// variable; nothing else defines anything — in particular jump
// statements define nothing, which is precisely why conventional
// slicing can never include them (paper, Section 3, first paragraph).
//
// Input is modeled explicitly: the input stream cursor is a hidden
// variable (InputVar) that every read statement both uses and
// defines, and that eof() uses. Without it, deleting one read from a
// slice would silently shift the values every later read receives —
// the slice would consume a different prefix of the input than the
// original program, breaking Weiser's criterion in a way dependence
// closure could never see.
package dataflow

import (
	"slices"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
)

// Def is a single definition site: node ID and the variable it
// defines.
type Def struct {
	Node int
	Var  string
}

// InputVar is the hidden variable standing for the input stream
// cursor. It never collides with program variables, whose names are
// plain identifiers.
const InputVar = "$input"

// ReachingDefs is the result of reaching-definitions analysis.
//
// The representation is dense: variables are interned to IDs once per
// analysis, definitions are numbered in node order (so a node's
// definitions are one contiguous index range, and walking any set of
// definitions in index order visits their nodes in ascending order),
// and each variable keeps one bitset of its definitions. Killing
// "every other definition of v" is then a difference with that one
// set, so no per-node kill set exists, and a node's data dependences
// are In[n] ∩ ⋃ defs(uses(n)), read off in definition order already
// sorted.
type ReachingDefs struct {
	g *cfg.Graph
	// Defs indexes all definition sites in node order; bit i in the
	// sets below refers to Defs[i].
	Defs []Def
	// In[n] is the set of definitions reaching the entry of node n.
	// It is the only node×definition table kept: every query reads
	// In, and the out sets the fixpoint iterates on are dropped once
	// it is reached.
	In []*bits.Set

	vars    map[string]int // variable name -> dense variable ID
	varDefs []*bits.Set    // varDefs[v]: the definitions of variable v
	defVar  []int          // defVar[d]: the variable ID Defs[d] defines
	defOff  []int          // node n defines Defs[defOff[n]:defOff[n+1]]
	// useOff/useVar list, per node, the IDs of the defined variables
	// it uses: node n's are useVar[useOff[n]:useOff[n+1]]. Variables
	// nothing defines have no ID and cannot carry a dependence.
	useOff []int
	useVar []int
}

// Reach computes reaching definitions for the graph: the least
// solution of out(n) = gen(n) ∪ (in(n) − kill(n)), in(n) = ∪ out(p)
// over predecessors p, by round-robin iteration in reverse postorder.
// Nodes unreachable from Entry keep empty sets: their definitions
// never execute, so they must not reach anything (e.g. an assignment
// after an unconditional goto).
func Reach(g *cfg.Graph) *ReachingDefs {
	nn := len(g.Nodes)
	r := &ReachingDefs{
		g:      g,
		Defs:   make([]Def, 0, nn),
		vars:   map[string]int{},
		defVar: make([]int, 0, nn),
		defOff: make([]int, nn+1),
		useOff: make([]int, nn+1),
		useVar: make([]int, 0, 2*nn),
	}
	var names []string // scratch, reused per node
	for i, n := range g.Nodes {
		r.defOff[i] = len(r.Defs)
		names = appendDefs(names[:0], n)
		for _, v := range names {
			id, ok := r.vars[v]
			if !ok {
				id = len(r.vars)
				r.vars[v] = id
			}
			r.Defs = append(r.Defs, Def{Node: n.ID, Var: v})
			r.defVar = append(r.defVar, id)
		}
	}
	r.defOff[nn] = len(r.Defs)
	for i, n := range g.Nodes {
		r.useOff[i] = len(r.useVar)
		r.useVar = r.appendUseIDs(r.useVar, names[:0], n)
	}
	r.useOff[nn] = len(r.useVar)

	nd := len(r.Defs)
	r.varDefs = bits.NewSlab(len(r.vars), nd)
	for d, v := range r.defVar {
		r.varDefs[v].Add(d)
	}
	r.In = bits.NewSlab(nn, nd)
	out := bits.NewSlab(nn, nd) // out[n]: the definitions leaving node n

	// Sets only grow from the empty start, so in(n) accumulates the
	// predecessors' outs without being cleared, and out(n) is
	// recomputed only when in(n) grew (or on the first pass, for
	// gen). The iteration is stable once a pass changes no out.
	order := reversePostorder(g)
	tmp := bits.New(nd)
	for first, changed := true, true; changed; first = false {
		changed = false
		for _, n := range order {
			in := r.In[n]
			grew := first
			for _, p := range g.Nodes[n].In {
				if in.UnionWith(out[p]) {
					grew = true
				}
			}
			if !grew {
				continue
			}
			tmp.Copy(in)
			lo, hi := r.defOff[n], r.defOff[n+1]
			for d := lo; d < hi; d++ {
				tmp.DifferenceWith(r.varDefs[r.defVar[d]])
			}
			for d := lo; d < hi; d++ {
				tmp.Add(d)
			}
			if out[n].UnionWith(tmp) {
				changed = true
			}
		}
	}
	return r
}

// reversePostorder returns the nodes reachable from Entry in reverse
// postorder of a depth-first walk along flow edges.
func reversePostorder(g *cfg.Graph) []int {
	seen := make([]bool, len(g.Nodes))
	post := make([]int, 0, len(g.Nodes))
	type frame struct{ v, ei int }
	stack := []frame{{g.Entry.ID, 0}}
	seen[g.Entry.ID] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if out := g.Nodes[f.v].Out; f.ei < len(out) {
			w := out[f.ei].To
			f.ei++
			if !seen[w] {
				seen[w] = true
				stack = append(stack, frame{w, 0})
			}
			continue
		}
		post = append(post, f.v)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// appendUseIDs appends to dst the distinct IDs of the defined
// variables node n uses, using names as scratch.
func (r *ReachingDefs) appendUseIDs(dst []int, names []string, n *cfg.Node) []int {
	start := len(dst)
	for _, v := range appendUses(names, n) {
		id, ok := r.vars[v]
		if !ok {
			continue
		}
		dup := false
		for _, u := range dst[start:] {
			if u == id {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, id)
		}
	}
	return dst
}

// DefsOf returns the variables a CFG node defines (including the
// input cursor for reads) — the DEF set of Weiser's formulation.
func DefsOf(n *cfg.Node) []string { return defsOf(n) }

// UsesOf returns the variables a CFG node references directly
// (including the input cursor for reads and eof() calls) — Weiser's
// REF set.
func UsesOf(n *cfg.Node) []string { return usesOf(n) }

// defsOf returns the variables a CFG node defines. A read defines its
// target variable and advances the input cursor.
func defsOf(n *cfg.Node) []string {
	if n.Stmt == nil {
		return nil
	}
	switch n.Kind {
	case cfg.KindAssign:
		return []string{lang.Def(n.Stmt)}
	case cfg.KindRead:
		return []string{lang.Def(n.Stmt), InputVar}
	case cfg.KindCall:
		// Value-result copy-out: a call kills and redefines every plain
		// identifier argument. This is what makes the SDG slice agree
		// with the slice of the inlined program — the copy-outs are real
		// definitions with real kills.
		if c, ok := lang.Unlabel(n.Stmt).(*lang.CallStmt); ok {
			return lang.CallOutVars(c)
		}
	}
	return nil
}

// usesOf returns the variables a CFG node uses directly. A read uses
// the input cursor (the value it stores depends on how much input has
// been consumed), and so does any statement calling eof().
func usesOf(n *cfg.Node) []string {
	if n.Stmt == nil {
		return nil
	}
	uses := lang.Uses(n.Stmt)
	if n.Kind == cfg.KindRead {
		return append(uses, InputVar)
	}
	if callsEOF(n.Stmt) {
		return append(uses[:len(uses):len(uses)], InputVar)
	}
	return uses
}

// appendDefs appends the variables n defines to dst: the same set as
// defsOf, without allocating a slice per node for the common kinds.
func appendDefs(dst []string, n *cfg.Node) []string {
	if n.Stmt == nil {
		return dst
	}
	switch n.Kind {
	case cfg.KindAssign:
		return append(dst, lang.Def(n.Stmt))
	case cfg.KindRead:
		return append(dst, lang.Def(n.Stmt), InputVar)
	}
	return append(dst, defsOf(n)...)
}

// appendUses appends the variables n uses directly to dst: the same
// set as usesOf, possibly repeated and unsorted, without the sorting
// and the per-node slice usesOf pays.
func appendUses(dst []string, n *cfg.Node) []string {
	if n.Stmt == nil {
		return dst
	}
	e := directExpr(n.Stmt)
	if e == nil {
		return append(dst, usesOf(n)...)
	}
	dst = lang.ExprVars(dst, e)
	if exprCallsEOF(e) {
		dst = append(dst, InputVar)
	}
	return dst
}

// directExpr returns the one expression a statement evaluates
// directly, or nil for statements with none (reads, jumps) or several
// (calls).
func directExpr(s lang.Stmt) lang.Expr {
	switch s := lang.Unlabel(s).(type) {
	case *lang.AssignStmt:
		return s.Value
	case *lang.WriteStmt:
		return s.Value
	case *lang.IfStmt:
		return s.Cond
	case *lang.WhileStmt:
		return s.Cond
	case *lang.SwitchStmt:
		return s.Tag
	case *lang.ReturnStmt:
		return s.Value
	}
	return nil
}

// callsEOF reports whether the statement's directly evaluated
// expression calls the eof() intrinsic.
func callsEOF(s lang.Stmt) bool {
	if c, ok := lang.Unlabel(s).(*lang.CallStmt); ok {
		for _, a := range c.Args {
			if exprCallsEOF(a) {
				return true
			}
		}
		return false
	}
	return exprCallsEOF(directExpr(s))
}

// exprCallsEOF reports whether e calls the eof() intrinsic anywhere.
func exprCallsEOF(e lang.Expr) bool {
	switch e := e.(type) {
	case *lang.CallExpr:
		if e.Name == "eof" {
			return true
		}
		for _, a := range e.Args {
			if exprCallsEOF(a) {
				return true
			}
		}
	case *lang.UnaryExpr:
		return exprCallsEOF(e.X)
	case *lang.BinaryExpr:
		return exprCallsEOF(e.X) || exprCallsEOF(e.Y)
	}
	return false
}

// ReachingDefsOf returns the definition sites of variable v that reach
// the entry of node n, as node IDs in ascending order.
func (r *ReachingDefs) ReachingDefsOf(n int, v string) []int {
	id, ok := r.vars[v]
	if !ok {
		return nil
	}
	masks := [1]*bits.Set{r.varDefs[id]}
	return r.defNodes(r.In[n].AppendMaskedMembers(nil, masks[:]), 0)
}

// AppendDataDeps appends to dst the node IDs node n is directly data
// (flow) dependent on — the reaching definitions of each variable it
// uses — in ascending order, and returns the extended slice.
func (r *ReachingDefs) AppendDataDeps(dst []int, n int) []int {
	return r.appendRow(dst, n, r.useVar[r.useOff[n]:r.useOff[n+1]])
}

// appendRow appends the data dependence row of node n given the IDs
// of the variables it uses.
func (r *ReachingDefs) appendRow(dst []int, n int, uses []int) []int {
	if len(uses) == 0 {
		return dst
	}
	var buf [8]*bits.Set
	masks := buf[:0]
	for _, v := range uses {
		masks = append(masks, r.varDefs[v])
	}
	return r.defNodes(r.In[n].AppendMaskedMembers(dst, masks), len(dst))
}

// defNodes rewrites the ascending definition indices in defs[start:]
// into their nodes in place, collapsing the adjacent repeats a node
// defining two used variables (a read: its target and the input
// cursor) produces, and returns the shortened slice.
func (r *ReachingDefs) defNodes(defs []int, start int) []int {
	out := defs[:start]
	for _, d := range defs[start:] {
		if node := r.Defs[d].Node; len(out) == start || out[len(out)-1] != node {
			out = append(out, node)
		}
	}
	return out
}

// DataDeps returns, for each node ID, the sorted set of node IDs it is
// directly data (flow) dependent on: the reaching definitions of each
// variable the node uses. The rows share one backing array.
func (r *ReachingDefs) DataDeps() [][]int {
	out := make([][]int, len(r.g.Nodes))
	var flat []int
	off := make([]int, len(out)+1)
	for n := range out {
		off[n] = len(flat)
		flat = r.AppendDataDeps(flat, n)
	}
	off[len(out)] = len(flat)
	for n := range out {
		if off[n] < off[n+1] {
			out[n] = flat[off[n]:off[n+1]:off[n+1]]
		}
	}
	return out
}

// DataDepsOf returns the sorted set of node IDs a single node is
// directly data dependent on, reading the variables it uses off its
// statement rather than the use table. The node may belong to a
// shape-identical copy of the analyzed graph — only its ID, kind, and
// statement are consulted — so it answers for an edited statement
// against reaching definitions computed before the edit.
func (r *ReachingDefs) DataDepsOf(n *cfg.Node) []int {
	var names [8]string
	var ids [8]int
	return r.appendRow(nil, n.ID, r.appendUseIDs(ids[:0], names[:0], n))
}

// Rebound returns the reaching definitions of g, a shape-identical
// rebinding of r's graph (same node IDs, kinds and definition sites,
// as cfg.Rebind makes) whose nodes edited, ascending, carry replaced
// statements, together with the nodes whose data dependence rows may
// differ from r's, ascending. It is the incremental engine's dataflow
// step for a same-shape edit.
//
// Such an edit keeps every definition index: definitions are numbered
// in node order, and a replaced statement defines as many variables
// as the one it replaced. What can change is the variable a definition
// belongs to (an assignment or read retargeted) and the variables an
// edited node uses. Reaching definitions are separable — whether
// definition d reaches node n depends only on which nodes define d's
// variable — so the In bits of every variable none of whose
// definitions moved are r's. Only the moved variables' definitions,
// old and new, are re-solved, by a fixpoint over their bits alone.
// The rows that can change are the edited nodes' and those of every
// node that uses a moved variable. Without a moved definition the In
// sets are shared outright and the rows are the edited nodes'.
//
// ok is false when the edit changes which variables are defined at all
// (a variable gains its first definition or loses its last) or how
// many definitions an edited node has: either renumbers what r would
// share, and the caller runs Reach instead.
func (r *ReachingDefs) Rebound(g *cfg.Graph, edited []int) (q *ReachingDefs, rows []int, ok bool) {
	type move struct {
		def, v int
		name   string
	}
	var moves []move
	var names []string
	for _, n := range edited {
		names = appendDefs(names[:0], g.Nodes[n])
		lo := r.defOff[n]
		if len(names) != r.defOff[n+1]-lo {
			return nil, nil, false
		}
		for i, name := range names {
			v, ok := r.vars[name]
			if !ok {
				return nil, nil, false // its first definition
			}
			if r.defVar[lo+i] != v {
				moves = append(moves, move{lo + i, v, name})
			}
		}
	}
	cp := *r // shares In and the definition index until they change
	q = &cp
	q.g = g
	q.useOff, q.useVar = r.reboundUses(g, edited)
	if len(moves) == 0 {
		return q, edited, true
	}

	// Renumber the moved definitions' variables; moved marks the
	// variables that lost or gained one.
	q.Defs = slices.Clone(r.Defs)
	q.defVar = slices.Clone(r.defVar)
	q.varDefs = slices.Clone(r.varDefs)
	moved := make([]bool, len(r.varDefs))
	for _, m := range moves {
		for _, v := range [2]int{r.defVar[m.def], m.v} {
			if !moved[v] {
				moved[v] = true
				q.varDefs[v] = r.varDefs[v].Clone()
			}
		}
		q.varDefs[r.defVar[m.def]].Remove(m.def)
		q.varDefs[m.v].Add(m.def)
		q.defVar[m.def] = m.v
		q.Defs[m.def].Var = m.name
	}
	mask := bits.New(len(r.Defs))
	for v, mv := range moved {
		if mv {
			if q.varDefs[v].Empty() {
				return nil, nil, false // its last definition
			}
			mask.UnionWith(q.varDefs[v])
		}
	}
	q.In = q.resolve(r.In, mask, moved)

	rows = make([]int, 0, len(edited))
	next := 0 // edited[next] is the next edited node
	for n := range g.Nodes {
		use := next < len(edited) && edited[next] == n
		if use {
			next++
		}
		for _, v := range q.useVar[q.useOff[n]:q.useOff[n+1]] {
			use = use || moved[v]
		}
		if use {
			rows = append(rows, n)
		}
	}
	return q, rows, true
}

// resolve returns the In table of q: prevIn with the bits of the
// definitions in mask, every definition of the variables moved marks,
// re-solved by the fixpoint Reach runs. The fixpoint runs on the new
// sets themselves, with those bits cleared: a predecessor's other bits
// are the solution already, so only the bits in mask are carried
// along edges. Only a node defining a moved variable transfers
// anything and keeps an out set of its own; every other node's out
// set, within mask, is its in set.
func (q *ReachingDefs) resolve(prevIn []*bits.Set, mask *bits.Set, moved []bool) []*bits.Set {
	g := q.g
	nn := len(g.Nodes)
	sets := bits.NewSlab(nn, len(q.Defs))
	for n, s := range sets {
		s.Copy(prevIn[n])
		s.DifferenceWith(mask)
	}
	// slot[n]-1 is the out set of a node defining a moved variable
	// (slot 0: none).
	slot := make([]int, nn)
	t := 0
	for n := range g.Nodes {
		for d := q.defOff[n]; d < q.defOff[n+1] && slot[n] == 0; d++ {
			if moved[q.defVar[d]] {
				t++
				slot[n] = t
			}
		}
	}
	out := bits.NewSlab(t, len(q.Defs))
	outOf := func(n int) *bits.Set {
		if t := slot[n]; t > 0 {
			return out[t-1]
		}
		return sets[n]
	}
	tmp := bits.New(len(q.Defs))
	// transfer recomputes n's out set, if it has one apart, and reports
	// whether its out set grew, given whether its in set did.
	transfer := func(n int, grew bool) bool {
		if slot[n] == 0 {
			return grew
		}
		tmp.Copy(sets[n])
		tmp.IntersectWith(mask)
		lo, hi := q.defOff[n], q.defOff[n+1]
		for d := lo; d < hi; d++ {
			if v := q.defVar[d]; moved[v] {
				tmp.DifferenceWith(q.varDefs[v])
			}
		}
		for d := lo; d < hi; d++ {
			if moved[q.defVar[d]] {
				tmp.Add(d)
			}
		}
		return out[slot[n]-1].UnionWith(tmp)
	}

	// Round-robin passes in reverse postorder, as Reach runs, but a
	// pass visits only the nodes a predecessor's out set grew into
	// since their last visit (all of them, on the first pass).
	order := reversePostorder(g)
	pending := make([]bool, nn)
	for _, n := range order {
		pending[n] = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			if !pending[n] {
				continue
			}
			pending[n] = false
			grew := false
			for _, p := range g.Nodes[n].In {
				grew = sets[n].UnionWithin(outOf(p), mask) || grew
			}
			if transfer(n, grew) {
				changed = true
				for _, e := range g.Nodes[n].Out {
					pending[e.To] = true
				}
			}
		}
	}
	return sets
}

// reboundUses returns the use table of a rebinding of r's graph whose
// nodes edited, ascending, carry new statements: r's rows, with the
// edited nodes' recomputed. It is r's own table when no edited row
// changed.
func (r *ReachingDefs) reboundUses(g *cfg.Graph, edited []int) (useOff, useVar []int) {
	var names []string
	var fresh []int
	off := make([]int, len(edited)+1)
	same := true
	for i, n := range edited {
		off[i] = len(fresh)
		fresh = r.appendUseIDs(fresh, names[:0], g.Nodes[n])
		same = same && slices.Equal(fresh[off[i]:], r.useVar[r.useOff[n]:r.useOff[n+1]])
	}
	if same {
		return r.useOff, r.useVar
	}
	off[len(edited)] = len(fresh)
	nn := len(r.useOff) - 1
	useOff = make([]int, nn+1)
	useVar = make([]int, 0, len(r.useVar)+len(fresh))
	from := 0 // the first node not yet copied
	for i := 0; i <= len(edited); i++ {
		n := nn
		if i < len(edited) {
			n = edited[i]
		}
		// Nodes from..n-1 keep their rows, shifted.
		shift := len(useVar) - r.useOff[from]
		for m := from; m < n; m++ {
			useOff[m] = r.useOff[m] + shift
		}
		useVar = append(useVar, r.useVar[r.useOff[from]:r.useOff[n]]...)
		if n == nn {
			break
		}
		useOff[n] = len(useVar)
		useVar = append(useVar, fresh[off[i]:off[i+1]]...)
		from = n + 1
	}
	useOff[nn] = len(useVar)
	return useOff, useVar
}
