// Package pdg merges the data dependence graph (from reaching
// definitions) and the control dependence graph into the program
// dependence graph of Ottenstein & Ottenstein (reference [24] in the
// paper), and provides the backward reachability that powers the
// conventional slicing algorithm.
package pdg

import (
	"cmp"
	"slices"

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

// Row is one node's replacement data dependence row, the input of
// Rederive. A list of rows names each node at most once.
type Row struct {
	Node int
	Deps []int
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
// newDataDeps, whose data rows are replaced and re-merged with control
// dependence. It is the incremental engine's PDG step: after a
// same-shape edit, only some nodes' data-dependence rows can differ,
// so rebuilding the whole graph is wasted work. The result shares p's
// row tables outright and overlays only the replaced rows; once a
// chain of derivations has overlaid more than maxOverlay rows it
// copies p's tables with the overlay folded in instead. p is not
// modified.
func (p *Graph) Rederive(g *cfg.Graph, cd *cdg.Graph, newDataDeps []Row) *Graph {
	q := &Graph{CFG: g, CDG: cd, data: p.data, deps: p.deps}
	// A replaced row's merged row is left nil until it is known
	// whether it goes into the overlay or straight into fresh tables.
	over := make([]overlayRow, len(p.over), len(p.over)+len(newDataDeps))
	copy(over, p.over)
	for _, r := range newDataDeps {
		o := overlayRow{node: r.Node, data: r.Deps}
		if i, ok := searchOverlay(over, r.Node); ok {
			over[i] = o
		} else {
			over = slices.Insert(over, i, o)
		}
	}
	if len(over) > maxOverlay {
		q.data, q.deps = p.flatten(over, cd)
		return q
	}
	for i := range over {
		if o := &over[i]; o.deps == nil {
			o.deps = appendMerged(nil, o.data, cd.ParentIDs(o.node))
		}
	}
	q.over = over
	return q
}

// flatten returns p's row tables with the rows in over, ascending by
// node, folded in; an overlay row without a merged row is merged with
// cd's control dependences. The rows between overlaid nodes are
// copied as runs.
func (p *Graph) flatten(over []overlayRow, cd *cdg.Graph) (data, deps rows) {
	nn := len(p.data.off) - 1
	data = rows{off: make([]int, nn+1), flat: make([]int, 0, len(p.data.flat)+len(p.data.flat)/8)}
	deps = rows{off: make([]int, nn+1), flat: make([]int, 0, len(p.deps.flat)+len(p.deps.flat)/8)}
	from := 0 // the first node not yet copied
	for _, o := range over {
		data.appendRun(p.data, from, o.node)
		deps.appendRun(p.deps, from, o.node)
		data.flat = append(data.flat, o.data...)
		if o.deps != nil {
			deps.flat = append(deps.flat, o.deps...)
		} else {
			deps.flat = appendMerged(deps.flat, o.data, cd.ParentIDs(o.node))
		}
		from = o.node + 1
	}
	data.appendRun(p.data, from, nn)
	deps.appendRun(p.deps, from, nn)
	return data, deps
}

// appendRun appends rows from..to-1 of src to r, whose rows before
// from are filled, and starts row to (or ends the table, at to = the
// row count) where they end.
func (r *rows) appendRun(src rows, from, to int) {
	shift := len(r.flat) - src.off[from]
	for n := from; n < to; n++ {
		r.off[n] = src.off[n] + shift
	}
	r.flat = append(r.flat, src.flat[src.off[from]:src.off[to]]...)
	r.off[to] = len(r.flat)
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

// NumDeps returns the dependence edge count: the sum over nodes of
// len(Deps(n)), read off the merged table and adjusted by the
// overlay, so it costs a lookup per overlaid row, not a walk.
func (p *Graph) NumDeps() int {
	n := len(p.deps.flat)
	for _, o := range p.over {
		n += len(o.deps) - len(p.deps.row(o.node))
	}
	return n
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

// Row returns node n's row of the slicing relation: its dependences
// followed by extra[k][n] for each per-node edge table that has an
// edge there (a non-negative entry). Without such an edge it is Deps(n)
// itself, shared; otherwise a fresh slice.
func (p *Graph) Row(n int, extra ...[]int) []int {
	deps := p.Deps(n)
	var row []int
	for _, t := range extra {
		if d := t[n]; d >= 0 {
			if row == nil {
				row = append(make([]int, 0, len(deps)+len(extra)), deps...)
			}
			row = append(row, d)
		}
	}
	if row == nil {
		return deps
	}
	return row
}

// cancelCheckNodes is the BFS cadence of cooperative cancellation:
// the closure walk consults its cancel callback once per this many
// node pops, keeping the per-pop cost of an attached context to one
// counter decrement.
const cancelCheckNodes = 1024

// BackwardClosure returns the set of nodes reachable from the seeds by
// following dependence edges backwards (the transitive closure of
// data and control dependence — the conventional slicing engine). The
// seeds themselves are included.
func (p *Graph) BackwardClosure(seeds []int) *bits.Set {
	out := bits.New(len(p.CFG.Nodes))
	p.Grow(out, seeds, nil)
	return out
}

// GrowClosure extends an existing slice set in place with the backward
// closure of the given seed, returning true if anything was added.
// Agrawal's Figure 7 uses this when a jump statement is added to the
// slice: "Add the transitive closure of the dependence of J to Slice".
func (p *Graph) GrowClosure(set *bits.Set, seed int) bool {
	changed, _ := p.Grow(set, []int{seed}, nil)
	return changed
}

// Grow is the one backward closure walk: it adds to set every node
// reachable from the seeds along the slicing relation — the
// dependence edges, plus an edge n → extra[k][n] for each per-node
// table in extra whose entry at n is non-negative — and reports
// whether set changed. Seeds already in set are taken as closed and
// are not walked again, so growing a closed set by a jump costs only
// what the jump adds.
//
// Every cancelCheckNodes pops the walk calls cancel (nil disables the
// checks) and abandons the closure on a non-nil error, returning it;
// set then holds a partial closure the caller must discard.
func (p *Graph) Grow(set *bits.Set, seeds []int, cancel func() error, extra ...[]int) (bool, error) {
	var queue []int
	for _, s := range seeds {
		if !set.Has(s) {
			set.Add(s)
			queue = append(queue, s)
		}
	}
	budget := cancelCheckNodes
	for i := 0; i < len(queue); i++ {
		if cancel != nil {
			if budget--; budget <= 0 {
				budget = cancelCheckNodes
				if err := cancel(); err != nil {
					return true, err
				}
			}
		}
		v := queue[i]
		for _, d := range p.Deps(v) {
			if !set.Has(d) {
				set.Add(d)
				queue = append(queue, d)
			}
		}
		for _, t := range extra {
			if d := t[v]; d >= 0 && !set.Has(d) {
				set.Add(d)
				queue = append(queue, d)
			}
		}
	}
	return len(queue) > 0, nil
}
