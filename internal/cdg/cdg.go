// Package cdg computes control dependence graphs using the
// Ferrante–Ottenstein–Warren construction from the postdominator tree
// (reference [10] in the paper).
//
// A node B is control dependent on node A (with branch label l) iff A
// has an edge labeled l to some node from which B is always reached
// (B postdominates that successor) and B does not postdominate A
// itself. Operationally: for every CFG edge (A, S) where S does not
// postdominate... rather where A is not postdominated by S's subtree
// containing B, walk the postdominator tree from S up to, but not
// including, ipdom(A), marking every visited node control dependent
// on A.
//
// The dummy entry predicate of the paper's figures (node 0) falls out
// of the virtual Entry→Exit edge the cfg package adds: top-level
// statements become control dependent on Entry's "T" branch.
package cdg

import (
	"cmp"
	"slices"

	"jumpslice/internal/cfg"
	"jumpslice/internal/dom"
)

// Dep is one direct control dependence: the node depends on From via
// its branch Label ("T"/"F" for predicates, a case value or "default"
// for switches).
type Dep struct {
	From  int
	Label string
}

// Graph is the control dependence graph of a flowgraph. Its three
// relations are compressed sparse row tables (row n of a table is
// flat[off[n]:off[n+1]]), built once and shared by every query.
type Graph struct {
	CFG *cfg.Graph
	PDT *dom.Tree

	parentOff []int
	parents   []Dep // deps of node n, sorted by (From, Label)
	idOff     []int
	ids       []int // controlling node IDs of n, de-duplicated and sorted
	childOff  []int
	children  []int // nodes control dependent on a, sorted
}

// Build computes the control dependence graph given the flowgraph and
// its postdominator tree (rooted at Exit).
//
// The dependences the edge walk records are grouped by node with a
// counting sort into one flat table; each (short) row is then sorted
// by (From, Label) and its repeats dropped as adjacent duplicates.
// Rows are visited in node order, so children come out sorted.
func Build(g *cfg.Graph, pdt *dom.Tree) *Graph {
	nn := len(g.Nodes)
	cd := &Graph{CFG: g, PDT: pdt}

	type rec struct {
		node int
		dep  Dep
	}
	recs := make([]rec, 0, 2*nn)
	for _, a := range g.Nodes {
		for _, e := range a.Out {
			s := e.To
			if !pdt.Reachable(s) || !pdt.Reachable(a.ID) {
				// Nodes on inescapable cycles have no postdominators;
				// control dependence is undefined for them and they
				// are skipped (documented limitation, DESIGN.md §4).
				continue
			}
			if pdt.Dominates(s, a.ID) {
				// The successor postdominates A: taking this edge is
				// not a choice that controls anything.
				continue
			}
			// Walk from s up the postdominator tree to ipdom(A),
			// exclusive. Every node on the way executes iff A takes
			// this branch.
			stop := pdt.Idom[a.ID]
			for v := s; v != stop; v = pdt.Idom[v] {
				recs = append(recs, rec{v, Dep{From: a.ID, Label: e.Label}})
				if v == pdt.Root {
					break
				}
			}
		}
	}

	// Group by node: off[n+1] counts node n's records, then the
	// prefix sums make off[n] its row start.
	off := make([]int, nn+1)
	for _, r := range recs {
		off[r.node+1]++
	}
	for n := 1; n <= nn; n++ {
		off[n] += off[n-1]
	}
	flat := make([]Dep, len(recs))
	cur := make([]int, nn)
	copy(cur, off)
	for _, r := range recs {
		flat[cur[r.node]] = r.dep
		cur[r.node]++
	}

	// Order each row by (From, Label) and drop repeats, compacting the
	// table in place; derive the ID rows and count children on the way.
	cd.parentOff = make([]int, nn+1)
	cd.idOff = make([]int, nn+1)
	cd.ids = make([]int, 0, len(recs))
	nchild := cur // reused: per-node child counts
	for i := range nchild {
		nchild[i] = 0
	}
	w := 0
	for n := 0; n < nn; n++ {
		row := flat[off[n]:off[n+1]]
		if len(row) > 1 {
			slices.SortFunc(row, func(a, b Dep) int {
				return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Label, b.Label))
			})
		}
		cd.parentOff[n] = w
		cd.idOff[n] = len(cd.ids)
		for i, d := range row {
			if i > 0 && d == row[i-1] {
				continue
			}
			flat[w] = d
			w++
			if i == 0 || d.From != row[i-1].From {
				cd.ids = append(cd.ids, d.From)
				nchild[d.From]++
			}
		}
	}
	cd.parentOff[nn] = w
	cd.idOff[nn] = len(cd.ids)
	cd.parents = flat[:w:w]

	cd.childOff = make([]int, nn+1)
	for a := 0; a < nn; a++ {
		cd.childOff[a+1] = cd.childOff[a] + nchild[a]
		nchild[a] = cd.childOff[a]
	}
	cd.children = make([]int, len(cd.ids))
	for n := 0; n < nn; n++ {
		for _, a := range cd.ids[cd.idOff[n]:cd.idOff[n+1]] {
			cd.children[nchild[a]] = n
			nchild[a]++
		}
	}
	return cd
}

// Parents returns the direct control dependences of node n, sorted.
// The slice is shared; callers must not modify it.
func (cd *Graph) Parents(n int) []Dep {
	lo, hi := cd.parentOff[n], cd.parentOff[n+1]
	return cd.parents[lo:hi:hi]
}

// ParentIDs returns just the controlling node IDs of n, de-duplicated
// and sorted (a node control dependent on both branches of a predicate
// lists it once). The slice is shared; callers must not modify it.
func (cd *Graph) ParentIDs(n int) []int {
	lo, hi := cd.idOff[n], cd.idOff[n+1]
	return cd.ids[lo:hi:hi]
}

// Children returns the nodes directly control dependent on a, sorted.
// The slice is shared; callers must not modify it.
func (cd *Graph) Children(a int) []int {
	lo, hi := cd.childOff[a], cd.childOff[a+1]
	return cd.children[lo:hi:hi]
}

// DependsOn reports whether n is directly control dependent on a.
func (cd *Graph) DependsOn(n, a int) bool {
	for _, d := range cd.ParentIDs(n) {
		if d == a {
			return true
		}
	}
	return false
}
