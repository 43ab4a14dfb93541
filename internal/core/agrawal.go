package core

import (
	"fmt"

	"jumpslice/internal/bits"
)

// Agrawal computes the slice with the paper's general algorithm
// (Figure 7):
//
//	Slice = conventional slice
//	do {
//	    traverse the postdominator tree in preorder; for each jump J
//	    not in Slice whose nearest postdominator in Slice differs from
//	    its nearest lexical successor in Slice:
//	        add J and the transitive closure of J's dependences
//	} until no new jump can be added
//	re-associate dangling goto labels
//
// Additions take effect immediately within a traversal (the paper's
// running example relies on this: including node 13 of Figure 3 makes
// it the nearest postdominator and lexical successor of node 11, so 11
// is rejected later in the same traversal).
//
// For many criteria on the same Analysis, SliceAll computes the same
// slices faster by sharing memoized dependence closures.
func (a *Analysis) Agrawal(c Criterion) (*Slice, error) {
	return a.agrawalWith(c, a.engine())
}

// agrawalWith is Agrawal parameterized by the closure engine.
func (a *Analysis) agrawalWith(c Criterion, eng depEngine) (*Slice, error) {
	conv, err := a.conventionalWith(c, eng)
	if err != nil {
		return nil, err
	}
	set := conv.Nodes
	s := &Slice{
		Analysis:  a,
		Criterion: c,
		Algorithm: "agrawal",
		Nodes:     set,
	}
	jumps, rules, traversals, err := a.repairJumps(set, a.jumpsPDT, eng)
	if err != nil {
		return nil, err
	}
	s.JumpsAdded, s.JumpRules, s.Traversals = jumps, rules, traversals
	s.Relabeled = a.retargetLabels(set)
	a.recordSlice(s.Algorithm, set)
	return s, nil
}

// RepairJumps runs the paper's Figure 7 jump-detection loop over an
// arbitrary base slice set, mutating it in place: repeated preorder
// traversals of the postdominator tree add every live jump whose
// nearest postdominator in the set differs from its nearest lexical
// successor in the set, together with the closure of its dependences,
// until a fixpoint. It returns the jumps added (in discovery order),
// the rule evidence observed at each admission (parallel to
// jumpsAdded), and the number of traversals performed (counting the
// final empty one).
//
// Beyond serving Agrawal, this is the building block for slicing
// variants that compute their base set differently — the dynamic
// slicer (internal/dynslice) repairs a dynamic statement set with it.
func (a *Analysis) RepairJumps(set *bits.Set) (jumpsAdded []int, rules []JumpRule, traversals int, err error) {
	return a.repairJumps(set, a.jumpsPDT, a.engine())
}

// repairJumps is the Figure 7 loop over a precomputed worklist of
// live jumps in tree-preorder (jumpsPDT for the paper's driver,
// jumpsLST for the lexical-successor alternative). Each traversal
// touches only jump nodes; non-jumps were never acted on, so the
// additions — and the reported traversal count — are identical to a
// full-preorder scan.
func (a *Analysis) repairJumps(set *bits.Set, worklist []int, eng depEngine) (jumpsAdded []int, rules []JumpRule, traversals int, err error) {
	examined := 0
	for {
		traversals++
		a.m.traversals.Add(1)
		a.o.Tr.Traversal("fig7", traversals)
		if err := a.checkCancel("fig7"); err != nil {
			return nil, nil, traversals, err
		}
		changed := false
		for _, v := range worklist {
			if set.Has(v) {
				continue
			}
			a.m.jumpsExamined.Add(1)
			if examined++; examined%cancelCheckJumps == 0 {
				if err := a.checkCancel("fig7"); err != nil {
					return nil, nil, traversals, err
				}
			}
			pd := a.nearestPostdomInSlice(v, set)
			ls := a.nearestLexInSlice(v, set)
			if pd == ls {
				continue
			}
			if err := a.addJumpWithClosure(set, v, eng); err != nil {
				return nil, nil, traversals, err
			}
			jumpsAdded = append(jumpsAdded, v)
			rules = append(rules, JumpRule{NearestPD: pd, NearestLS: ls})
			a.m.jumpsAdmitted.Add(1)
			a.o.Tr.JumpAdmitted("fig7", v, pd, ls)
			changed = true
		}
		if !changed {
			return jumpsAdded, rules, traversals, nil
		}
		if traversals > len(a.CFG.Nodes)+1 {
			// Each productive traversal adds at least one jump, so
			// traversal count is bounded by the jump count; this guard
			// only trips on an implementation bug.
			return nil, nil, traversals, fmt.Errorf("core: Figure 7 loop failed to converge after %d traversals", traversals)
		}
	}
}

// AgrawalLST is the Figure 7 algorithm driven by preorder traversals
// of the lexical successor tree instead of the postdominator tree —
// the alternative the paper notes yields the same final slice, though
// possibly with a different number of traversals. It exists for the
// equivalence experiments.
func (a *Analysis) AgrawalLST(c Criterion) (*Slice, error) {
	return a.agrawalLSTWith(c, a.engine())
}

// agrawalLSTWith is AgrawalLST parameterized by the closure engine.
// Its conventional base slice is reported as a slice of its own, as
// the Conventional entry point reports it.
func (a *Analysis) agrawalLSTWith(c Criterion, eng depEngine) (*Slice, error) {
	conv, err := a.conventionalWith(c, eng)
	if err != nil {
		return nil, err
	}
	a.recordSlice("conventional", conv.Nodes)
	set := conv.Nodes
	s := &Slice{
		Analysis:  a,
		Criterion: c,
		Algorithm: "agrawal-lst",
		Nodes:     set,
	}
	jumps, rules, traversals, err := a.repairJumps(set, a.jumpsLST, eng)
	if err != nil {
		return nil, fmt.Errorf("core: LST-driven algorithm: %w", err)
	}
	s.JumpsAdded, s.JumpRules, s.Traversals = jumps, rules, traversals
	s.Relabeled = a.retargetLabels(set)
	a.recordSlice(s.Algorithm, set)
	return s, nil
}

// recordSlice reports a finished slice to the registry and the trace:
// one slice counted, its final node count observed, one trace event
// named after the algorithm. A single nil-check each when recording
// and tracing are disabled.
func (a *Analysis) recordSlice(algo string, set *bits.Set) {
	a.m.slices.Add(1)
	if a.m.sliceNodes != nil {
		a.m.sliceNodes.Observe(int64(set.Len()))
	}
	if a.o.Tr != nil {
		a.o.Tr.SliceDone(algo, set.Len())
	}
}

// addJumpWithClosure adds jump node v to the slice together with the
// transitive closure of its data and control dependences, keeping the
// conditional-jump adaptation invariant (a predicate pulled in by the
// closure brings its associated jump along — Figure 8's predicate 9).
func (a *Analysis) addJumpWithClosure(set *bits.Set, v int, eng depEngine) error {
	added, err := eng.grow(set, v, nil)
	if err != nil {
		return err
	}
	return a.normalizeSlice(set, added, eng)
}
