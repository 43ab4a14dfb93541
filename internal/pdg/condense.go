package pdg

import (
	"sync"

	"jumpslice/internal/bits"
	"jumpslice/internal/obs"
)

// Condensation is the strongly-connected-component condensation of a
// dependence relation, with memoized per-component backward closures.
// Nodes in the same dependence cycle always enter a slice together, so
// the backward closure of any node is fully determined by its
// component; the condensation is a DAG, which lets closures be
// computed bottom-up as word-parallel bitset unions and shared across
// every criterion sliced on the same relation.
//
// Components are numbered in dependence-topological order: every
// component a node depends on has a smaller index than the node's own
// component (the order Tarjan's algorithm emits them in). That
// invariant is what makes the lazy closure fill in ensure simple and
// single-pass.
type Condensation struct {
	comp  []int   // comp[n] = component index of node n
	comps [][]int // comps[c] = member nodes of component c, ascending
	// succOff/succFlat hold, as compressed sparse rows, the components
	// each component's members depend on (deduped, itself excluded):
	// component c's are succFlat[succOff[c]:succOff[c+1]]. Pointer-free,
	// so the collector never scans them.
	succOff  []int
	succFlat []int

	mu      sync.Mutex
	closure []*bits.Set // closure[c] = backward closure of c's members; nil until demanded
}

// Instruments is one caller's closure-cache instrumentation, passed
// on every lookup (as the cancel callback is) rather than stored on
// the condensation, so a condensation shared by several request views
// reports each lookup to the view that made it. A request is one
// closure lookup (one seed of a Grow); a hit is a
// request answered from an already-memoized component closure; a
// build is one component closure being materialized. Nil fields
// record nothing, and so does a nil *Instruments.
type Instruments struct {
	Requests, Hits, Builds *obs.Counter
}

// uninstrumented stands in for a nil *Instruments.
var uninstrumented Instruments

// Condense builds the condensation of an arbitrary dependence
// relation given as adjacency lists (adj[n] = the nodes n depends
// on). core condenses its slicing relation (Graph.Row: the
// dependences plus the two slice invariants as edges), so every
// memoized closure satisfies the invariants by construction.
//
// The SCC pass is an iterative Tarjan over the relation. The explicit
// stack keeps deep dependence chains (one per statement in a
// straight-line program) from overflowing the goroutine stack on
// large inputs.
func Condense(adj [][]int) *Condensation {
	n := len(adj)
	c := &Condensation{comp: make([]int, n)}
	const unvisited = -1
	index := make([]int, n)   // discovery index, -1 = unvisited
	lowlink := make([]int, n) // Tarjan lowlink
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		c.comp[i] = unvisited
	}
	var stack []int // Tarjan's component stack
	next := 0       // next discovery index

	// frame is one suspended DFS visit: node v, with edge cursor ei
	// into adj[v].
	type frame struct{ v, ei int }
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		dfs = append(dfs[:0], frame{root, 0})
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			deps := adj[f.v]
			if f.ei < len(deps) {
				w := deps[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], lowlink[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{w, 0})
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			v := f.v
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 && lowlink[v] < lowlink[dfs[len(dfs)-1].v] {
				lowlink[dfs[len(dfs)-1].v] = lowlink[v]
			}
			if lowlink[v] != index[v] {
				continue
			}
			// v is a component root: pop its members.
			id := len(c.comps)
			var members []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				c.comp[w] = id
				members = append(members, w)
				if w == v {
					break
				}
			}
			// Popped in reverse discovery order; ascending IDs keep
			// Members and tests deterministic.
			for i, j := 0, len(members)-1; i < j; i, j = i+1, j-1 {
				members[i], members[j] = members[j], members[i]
			}
			c.comps = append(c.comps, members)
		}
	}

	// Condensation edges, deduped with a stamp array. Tarjan's
	// emission order guarantees every successor index is smaller.
	c.succOff = make([]int, len(c.comps)+1)
	stamp := make([]int, len(c.comps))
	for i := range stamp {
		stamp[i] = -1
	}
	for cid, members := range c.comps {
		c.succOff[cid] = len(c.succFlat)
		for _, v := range members {
			for _, d := range adj[v] {
				dc := c.comp[d]
				if dc != cid && stamp[dc] != cid {
					stamp[dc] = cid
					c.succFlat = append(c.succFlat, dc)
				}
			}
		}
	}
	c.succOff[len(c.comps)] = len(c.succFlat)
	c.closure = make([]*bits.Set, len(c.comps))
	return c
}

// succs returns the components component cid's members depend on.
func (c *Condensation) succs(cid int) []int {
	return c.succFlat[c.succOff[cid]:c.succOff[cid+1]]
}

// cancelCheckComps is the closure-fill cadence of cooperative
// cancellation: the ascending component sweep consults its cancel
// callback once per this many component builds.
const cancelCheckComps = 64

// ensure fills in closure[target] (and, amortized, every component it
// transitively depends on). Because component indices are topological
// — dependencies strictly smaller — a single ascending sweep that
// skips already-built entries is sufficient; across the lifetime of
// the Condensation each component's closure is built exactly once, so
// total fill cost is O(components × words) plus the one-off member
// inserts. Caller holds c.mu.
//
// cancel, when non-nil, is consulted every cancelCheckComps component
// builds; a non-nil error abandons the sweep. Components already
// built stay memoized — they are complete for themselves — so a later
// request resumes where the canceled one stopped. The request, and
// every hit and build it causes, is reported to in.
func (c *Condensation) ensure(target int, cancel func() error, in *Instruments) (*bits.Set, error) {
	if in == nil {
		in = &uninstrumented
	}
	in.Requests.Add(1)
	if s := c.closure[target]; s != nil {
		in.Hits.Add(1)
		return s, nil
	}
	n := len(c.comp)
	budget := cancelCheckComps
	for i := 0; i <= target; i++ {
		if c.closure[i] != nil {
			continue
		}
		if cancel != nil {
			if budget--; budget <= 0 {
				budget = cancelCheckComps
				if err := cancel(); err != nil {
					return nil, err
				}
			}
		}
		s := bits.New(n)
		for _, v := range c.comps[i] {
			s.Add(v)
		}
		for _, d := range c.succs(i) {
			s.UnionWith(c.closure[d])
		}
		c.closure[i] = s
		in.Builds.Add(1)
	}
	return c.closure[target], nil
}

// Grow is the condensation-backed equivalent of Graph.Grow over the
// condensed relation: it unions the memoized closures of the seeds'
// components into set and reports whether set changed. Word-parallel,
// and O(words) per seed once warm. The closure fill consults cancel
// (nil disables the checks) and abandons the request on a non-nil
// error, returning it, and each seed's lookup is reported to in.
// Safe for concurrent use.
func (c *Condensation) Grow(set *bits.Set, seeds []int, cancel func() error, in *Instruments) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for _, s := range seeds {
		cs, err := c.ensure(c.comp[s], cancel, in)
		if err != nil {
			return changed, err
		}
		if set.UnionWith(cs) {
			changed = true
		}
	}
	return changed, nil
}
