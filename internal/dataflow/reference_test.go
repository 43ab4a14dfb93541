package dataflow

import (
	"sort"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
)

// refReachingDefs is the string-keyed reaching-definitions analysis
// the dense core replaced, kept as the property tests' oracle: one
// definition index per (node, variable) pair keyed by variable name, a
// materialized kill set per node, and round-robin iteration in node
// order. Its results define what Reach must compute.
type refReachingDefs struct {
	g       *cfg.Graph
	Defs    []Def
	In, Out []*bits.Set

	defsOf map[string][]int // variable -> def indices
	defAt  map[int][]int    // node ID -> def indices (a read defines two)
}

// refReach computes reaching definitions with the standard forward
// worklist iteration: out(n) = gen(n) ∪ (in(n) − kill(n)),
// in(n) = ∪ out(p) over predecessors p. Nodes unreachable from Entry
// are excluded.
func refReach(g *cfg.Graph) *refReachingDefs {
	r := &refReachingDefs{
		g:      g,
		defsOf: map[string][]int{},
		defAt:  map[int][]int{},
	}
	for _, n := range g.Nodes {
		for _, v := range defsOf(n) {
			idx := len(r.Defs)
			r.Defs = append(r.Defs, Def{Node: n.ID, Var: v})
			r.defsOf[v] = append(r.defsOf[v], idx)
			r.defAt[n.ID] = append(r.defAt[n.ID], idx)
		}
	}

	nd := len(r.Defs)
	nn := len(g.Nodes)
	gen := make([]*bits.Set, nn)
	kill := make([]*bits.Set, nn)
	r.In = make([]*bits.Set, nn)
	r.Out = make([]*bits.Set, nn)
	for i := 0; i < nn; i++ {
		gen[i] = bits.New(nd)
		kill[i] = bits.New(nd)
		r.In[i] = bits.New(nd)
		r.Out[i] = bits.New(nd)
	}
	for i, n := range g.Nodes {
		for _, di := range r.defAt[n.ID] {
			gen[i].Add(di)
			for _, other := range r.defsOf[r.Defs[di].Var] {
				if other != di {
					kill[i].Add(other)
				}
			}
		}
	}

	reachable := g.Reachable()
	tmp := bits.New(nd)
	for changed := true; changed; {
		changed = false
		for i, n := range g.Nodes {
			if !reachable[n.ID] {
				continue
			}
			r.In[i].Clear()
			for _, p := range n.In {
				r.In[i].UnionWith(r.Out[p])
			}
			tmp.Copy(r.In[i])
			tmp.DifferenceWith(kill[i])
			tmp.UnionWith(gen[i])
			if !tmp.Equal(r.Out[i]) {
				r.Out[i].Copy(tmp)
				changed = true
			}
		}
	}
	return r
}

// ReachingDefsOf returns the definition sites of variable v that reach
// the entry of node n, as node IDs in ascending order.
func (r *refReachingDefs) ReachingDefsOf(n int, v string) []int {
	var out []int
	for _, di := range r.defsOf[v] {
		if r.In[n].Has(di) {
			out = append(out, r.Defs[di].Node)
		}
	}
	sort.Ints(out)
	return out
}

// DataDepsOf returns the sorted set of node IDs a node is directly
// data dependent on.
func (r *refReachingDefs) DataDepsOf(n *cfg.Node) []int {
	seen := map[int]bool{}
	for _, v := range usesOf(n) {
		for _, d := range r.ReachingDefsOf(n.ID, v) {
			seen[d] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	deps := make([]int, 0, len(seen))
	for d := range seen {
		deps = append(deps, d)
	}
	sort.Ints(deps)
	return deps
}

// DataDeps returns every node's DataDepsOf row, indexed by node ID.
func (r *refReachingDefs) DataDeps() [][]int {
	out := make([][]int, len(r.g.Nodes))
	for _, n := range r.g.Nodes {
		out[n.ID] = r.DataDepsOf(n)
	}
	return out
}
