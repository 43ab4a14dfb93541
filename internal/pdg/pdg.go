// Package pdg merges the data dependence graph (from reaching
// definitions) and the control dependence graph into the program
// dependence graph of Ottenstein & Ottenstein (reference [24] in the
// paper), and provides the backward reachability that powers the
// conventional slicing algorithm.
package pdg

import (
	"cmp"
	"slices"
	"sync"

	"jumpslice/internal/bits"
	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
)

// Graph is a program dependence graph over the nodes of a flowgraph.
type Graph struct {
	CFG *cfg.Graph
	CDG *cdg.Graph

	data rows // data[n]: nodes n is data dependent on, ascending
	deps rows // union of data and control deps, ascending
	// over holds the rows Rederive replaced, ascending by node; a
	// node listed here reads its rows from the overlay, not from
	// data/deps, which stay shared with the graph derived from.
	over []overlayRow

	// cond is the lazily-built SCC condensation with its memoized
	// component closures; see Condensation.
	condOnce sync.Once
	cond     *Condensation
}

// rows is a compressed sparse row table: row n is
// flat[off[n]:off[n+1]].
type rows struct {
	off  []int
	flat []int
}

// row returns row n, capacity-clipped so a caller's append cannot
// write into the next row.
func (r rows) row(n int) []int {
	lo, hi := r.off[n], r.off[n+1]
	return r.flat[lo:hi:hi]
}

// overlayRow is one node's replacement rows.
type overlayRow struct {
	node       int
	data, deps []int
}

// maxOverlay bounds the overlay a chain of Rederive calls may build
// up (a long editing session derives each graph from the previous
// one). Past it the rows are flattened into fresh tables, so lookups
// stay a short binary search and the flattening cost is amortized
// over that many edits.
const maxOverlay = 16

// Build merges control and data dependence. The control dependence
// graph may come from either the plain flowgraph (Agrawal's setting)
// or an augmented flowgraph (the Ball–Horwitz baseline); the data
// dependence always comes from the plain flowgraph, which is why the
// reaching-definitions result is a separate argument.
//
// Both tables are built row by row into one flat array each: a data
// row comes out of the reaching definitions already sorted, and the
// merged row is a linear merge of two sorted rows.
func Build(g *cfg.Graph, cd *cdg.Graph, rd *dataflow.ReachingDefs) *Graph {
	nn := len(g.Nodes)
	p := &Graph{CFG: g, CDG: cd}
	p.data.off = make([]int, nn+1)
	p.data.flat = make([]int, 0, 2*nn)
	for n := 0; n < nn; n++ {
		p.data.off[n] = len(p.data.flat)
		p.data.flat = rd.AppendDataDeps(p.data.flat, n)
	}
	p.data.off[nn] = len(p.data.flat)
	p.deps.off = make([]int, nn+1)
	p.deps.flat = make([]int, 0, len(p.data.flat)+nn+nn/2)
	for n := 0; n < nn; n++ {
		p.deps.off[n] = len(p.deps.flat)
		p.deps.flat = appendMerged(p.deps.flat, p.data.row(n), cd.ParentIDs(n))
	}
	p.deps.off[nn] = len(p.deps.flat)
	return p
}

// appendMerged appends the union of two ascending, duplicate-free rows
// to dst, ascending and duplicate-free.
func appendMerged(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Rederive returns a graph over a shape-identical flowgraph that
// shares every dependence row of p except those of the nodes in
// newDataDeps, whose rows are replaced and re-merged with control
// dependence. It is the incremental engine's PDG step: after a
// same-shape edit, only the edited statements' data-dependence rows
// can differ, so rebuilding the whole graph is wasted work. The
// result shares p's row tables outright and overlays only the edited
// rows (flattening once a chain of derivations has overlaid more than
// maxOverlay). p is not modified; the returned graph's condensation
// is rebuilt lazily unless the caller patches one in.
func (p *Graph) Rederive(g *cfg.Graph, cd *cdg.Graph, newDataDeps map[int][]int) *Graph {
	q := &Graph{CFG: g, CDG: cd, data: p.data, deps: p.deps}
	over := make([]overlayRow, len(p.over), len(p.over)+len(newDataDeps))
	copy(over, p.over)
	for n, dd := range newDataDeps {
		o := overlayRow{node: n, data: dd, deps: appendMerged(nil, dd, cd.ParentIDs(n))}
		if i, ok := searchOverlay(over, n); ok {
			over[i] = o
		} else {
			over = slices.Insert(over, i, o)
		}
	}
	q.over = over
	if len(over) > maxOverlay {
		q.flatten()
	}
	return q
}

// flatten folds the overlay into fresh row tables.
func (p *Graph) flatten() {
	nn := len(p.data.off) - 1
	data := rows{off: make([]int, nn+1), flat: make([]int, 0, len(p.data.flat)+len(p.over))}
	deps := rows{off: make([]int, nn+1), flat: make([]int, 0, len(p.deps.flat)+len(p.over))}
	for n := 0; n < nn; n++ {
		data.off[n], deps.off[n] = len(data.flat), len(deps.flat)
		data.flat = append(data.flat, p.DataDeps(n)...)
		deps.flat = append(deps.flat, p.Deps(n)...)
	}
	data.off[nn], deps.off[nn] = len(data.flat), len(deps.flat)
	p.data, p.deps, p.over = data, deps, nil
}

// searchOverlay returns where node n's row is, or belongs, in over.
func searchOverlay(over []overlayRow, n int) (int, bool) {
	return slices.BinarySearchFunc(over, n, func(o overlayRow, n int) int { return cmp.Compare(o.node, n) })
}

// overlay returns n's replacement rows, or nil if it has none.
func (p *Graph) overlay(n int) *overlayRow {
	if i, ok := searchOverlay(p.over, n); ok {
		return &p.over[i]
	}
	return nil
}

// DataDeps returns the nodes n is directly data dependent on, sorted.
// The slice is shared; callers must not modify it.
func (p *Graph) DataDeps(n int) []int {
	if len(p.over) > 0 {
		if o := p.overlay(n); o != nil {
			return o.data
		}
	}
	return p.data.row(n)
}

// ControlDeps returns the nodes n is directly control dependent on,
// de-duplicated and sorted.
func (p *Graph) ControlDeps(n int) []int { return p.CDG.ParentIDs(n) }

// Deps returns the union of data and control dependences of n, sorted.
// The slice is shared; callers must not modify it.
func (p *Graph) Deps(n int) []int {
	if len(p.over) > 0 {
		if o := p.overlay(n); o != nil {
			return o.deps
		}
	}
	return p.deps.row(n)
}

// cancelCheckNodes is the BFS cadence of cooperative cancellation:
// the closure walks consult their cancel callback once per this many
// node pops, keeping the per-pop cost of an attached context to one
// counter decrement.
const cancelCheckNodes = 1024

// BackwardClosure returns the set of nodes reachable from the seeds by
// following dependence edges backwards (the transitive closure of
// data and control dependence — the conventional slicing engine). The
// seeds themselves are included.
func (p *Graph) BackwardClosure(seeds []int) *bits.Set {
	out, _ := p.BackwardClosureCancel(seeds, nil)
	return out
}

// BackwardClosureCancel is BackwardClosure with cooperative
// cancellation: every cancelCheckNodes node visits the walk calls
// cancel (nil disables the checks) and abandons the closure on a
// non-nil error, returning it.
func (p *Graph) BackwardClosureCancel(seeds []int, cancel func() error) (*bits.Set, error) {
	out := bits.New(len(p.CFG.Nodes))
	var stack []int
	for _, s := range seeds {
		if !out.Has(s) {
			out.Add(s)
			stack = append(stack, s)
		}
	}
	if err := p.drain(out, stack, cancel); err != nil {
		return nil, err
	}
	return out, nil
}

// GrowClosure extends an existing slice set in place with the backward
// closure of the given seed, returning true if anything was added.
// Agrawal's Figure 7 uses this when a jump statement is added to the
// slice: "Add the transitive closure of the dependence of J to Slice".
func (p *Graph) GrowClosure(set *bits.Set, seed int) bool {
	changed, _ := p.GrowClosureCancel(set, seed, nil)
	return changed
}

// GrowClosureCancel is GrowClosure with cooperative cancellation (see
// BackwardClosureCancel). On cancellation the set holds a partial
// closure and must be discarded by the caller.
func (p *Graph) GrowClosureCancel(set *bits.Set, seed int, cancel func() error) (bool, error) {
	if set.Has(seed) {
		return false, nil
	}
	set.Add(seed)
	if err := p.drain(set, []int{seed}, cancel); err != nil {
		return false, err
	}
	return true, nil
}

// drain runs the backward BFS from the stacked nodes into set,
// consulting cancel every cancelCheckNodes pops.
func (p *Graph) drain(set *bits.Set, stack []int, cancel func() error) error {
	budget := cancelCheckNodes
	for len(stack) > 0 {
		if cancel != nil {
			if budget--; budget <= 0 {
				budget = cancelCheckNodes
				if err := cancel(); err != nil {
					return err
				}
			}
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range p.Deps(n) {
			if !set.Has(d) {
				set.Add(d)
				stack = append(stack, d)
			}
		}
	}
	return nil
}
