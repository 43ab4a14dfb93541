package core

import "fmt"

// SliceAll computes the Figure 7 (Agrawal) slice for every criterion
// in one batch, in input order. The result for each criterion is
// byte-identical to an individual Agrawal call — same node set, same
// traversal count, same jump-addition order — but the batch shares a
// single SCC condensation of the slicing relation: closures become
// word-parallel unions of memoized per-component bitsets instead of
// per-node graph walks, so the marginal cost of each further
// criterion drops sharply (BenchmarkSliceAll measures the gap).
//
// The condensation cache lives on the Analysis, so successive
// SliceAll calls — the "analyze once, slice many times" service
// pattern — keep reusing it. Concurrent SliceAll calls on the same
// Analysis are safe; each call's slices are still computed serially
// in input order.
func (a *Analysis) SliceAll(crits []Criterion) ([]*Slice, error) {
	eng := a.batchEngine()
	out := make([]*Slice, len(crits))
	for i, c := range crits {
		s, err := a.slice(c, figure7, eng)
		if err != nil {
			return nil, fmt.Errorf("core: SliceAll criterion %d (%s): %w", i, c, err)
		}
		out[i] = s
	}
	return out, nil
}
