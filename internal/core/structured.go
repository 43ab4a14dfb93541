package core

import (
	"fmt"

	"jumpslice/internal/cfg"
)

// ErrUnstructured is returned (wrapped) by the Figure 12 and Figure 13
// algorithms when the program contains a non-structured jump; their
// correctness arguments (Section 4, properties 1 and 2) only hold for
// structured programs.
var ErrUnstructured = fmt.Errorf("program contains non-structured jump statements")

// AgrawalStructured computes the slice with the paper's simplified
// algorithm for structured programs (Figure 12): preorder traversal
// of the postdominator tree adds each jump that is (i) directly
// control dependent on a predicate in the slice (widened for C switch
// fall-through; see structuredCandidate below) and (ii) whose nearest
// postdominator in the slice differs from its nearest lexical
// successor in the slice.
//
// Two measured deviations from the paper's Figure 12, both necessary
// for correctness (EXPERIMENTS.md, "Findings"):
//
//   - The traversal iterates to a fixpoint instead of running exactly
//     once. The paper's single-traversal argument (Section 4,
//     property 1) only accounts for jump-jump interactions through
//     postdominator/lexical-successor pairs; the dependence closure of
//     an added jump (a return's value operand, a fall-through guard)
//     can also flip an earlier jump's test, which happens in roughly
//     0.4% of generated structured programs. Traversals reports the
//     passes used.
//   - Added jumps carry their dependence closure (see the loop body).
func (a *Analysis) AgrawalStructured(c Criterion) (*Slice, error) {
	return a.structuredWith(c, a.engine())
}

// structuredWith is AgrawalStructured parameterized by the closure
// engine.
func (a *Analysis) structuredWith(c Criterion, eng depEngine) (*Slice, error) {
	if !a.Structured() {
		return nil, fmt.Errorf("core: Figure 12 algorithm: %w", ErrUnstructured)
	}
	conv, err := a.conventionalWith(c, eng)
	if err != nil {
		return nil, err
	}
	set := conv.Nodes
	s := &Slice{
		Analysis:  a,
		Criterion: c,
		Algorithm: "agrawal-structured",
		Nodes:     set,
	}
	examined := 0
	for {
		s.Traversals++
		a.m.traversals.Add(1)
		if err := a.checkCancel("fig12"); err != nil {
			return nil, err
		}
		changed := false
		for _, v := range a.jumpsPDT {
			if set.Has(v) {
				continue
			}
			if !a.directCandidate(v, set) && !a.switchCandidate(v, set) {
				continue
			}
			a.m.jumpsExamined.Add(1)
			if examined++; examined%cancelCheckJumps == 0 {
				if err := a.checkCancel("fig12"); err != nil {
					return nil, err
				}
			}
			pd := a.nearestPostdomInSlice(v, set)
			ls := a.nearestLexInSlice(v, set)
			if pd == ls {
				continue
			}
			// Paper, Section 4 property 2: a condition-(i) jump's
			// dependences are already in the slice, so the closure
			// below is a no-op for break, continue, and goto — running
			// it anyway is faithful and also covers the two cases the
			// property does not: the value operand of "return e" (a
			// data dependence the property's argument never mentions)
			// and widened (switch fall-through) candidates whose
			// guards are outside the slice.
			if err := eng.grow(set, v); err != nil {
				return nil, err
			}
			s.JumpsAdded = append(s.JumpsAdded, v)
			s.JumpRules = append(s.JumpRules, JumpRule{NearestPD: pd, NearestLS: ls})
			a.m.jumpsAdmitted.Add(1)
			changed = true
		}
		if !changed {
			break
		}
		if s.Traversals > len(a.CFG.Nodes)+1 {
			return nil, fmt.Errorf("core: Figure 12 algorithm failed to converge after %d traversals", s.Traversals)
		}
	}
	s.Relabeled = a.retargetLabels(set)
	a.recordSlice(set)
	return s, nil
}

// AgrawalConservative computes the slice with the paper's conservative
// algorithm for structured programs (Figure 13): every jump directly
// control dependent on a predicate in the slice is included, with no
// postdominator/lexical-successor test at all. The result may include
// jumps the Figure 12 algorithm proves unnecessary (Figure 14-c versus
// 14-b) but never misses a needed one, and the rule can be applied
// on the fly while the conventional slice is being computed.
func (a *Analysis) AgrawalConservative(c Criterion) (*Slice, error) {
	return a.conservativeWith(c, a.engine())
}

// conservativeWith is AgrawalConservative parameterized by the
// closure engine.
func (a *Analysis) conservativeWith(c Criterion, eng depEngine) (*Slice, error) {
	if !a.Structured() {
		return nil, fmt.Errorf("core: Figure 13 algorithm: %w", ErrUnstructured)
	}
	conv, err := a.conventionalWith(c, eng)
	if err != nil {
		return nil, err
	}
	set := conv.Nodes
	s := &Slice{
		Analysis:  a,
		Criterion: c,
		Algorithm: "agrawal-conservative",
		Nodes:     set,
	}
	// Iterate to a fixpoint: an added jump's dependence closure can
	// make further jumps candidates (same phenomenon as in
	// AgrawalStructured; the on-the-fly reading of the paper's Figure
	// 13 — detect jumps while the conventional closure grows — has
	// the same effect).
	examined := 0
	for pass, changed := 0, true; changed; {
		changed = false
		pass++
		a.m.traversals.Add(1)
		if err := a.checkCancel("fig13"); err != nil {
			return nil, err
		}
		for _, j := range a.CFG.Jumps() {
			if set.Has(j.ID) || !a.live[j.ID] {
				continue
			}
			a.m.jumpsExamined.Add(1)
			if examined++; examined%cancelCheckJumps == 0 {
				if err := a.checkCancel("fig13"); err != nil {
					return nil, err
				}
			}
			if a.directCandidate(j.ID, set) || a.switchCandidate(j.ID, set) {
				if err := eng.grow(set, j.ID); err != nil {
					return nil, err
				}
				s.JumpsAdded = append(s.JumpsAdded, j.ID)
				a.m.jumpsAdmitted.Add(1)
				changed = true
			}
		}
	}
	s.Relabeled = a.retargetLabels(set)
	a.recordSlice(set)
	return s, nil
}

// Candidate conditions for the structured algorithms (Figures 12 and
// 13): condition (i) of the paper plus a necessary widening for C
// switch fall-through.
//
// Condition (i): v is directly control dependent on a predicate in
// the slice. The dummy entry node counts as a predicate: the paper
// makes all top-level statements control dependent on "a dummy
// predicate node, viz., node 0", and that node is in every slice — so
// a top-level return before the criterion is a candidate, as it must
// be (omitting it would let the slice run past a return the original
// program takes).
//
// The widening: v is also a candidate when the switch statement
// enclosing it is in the slice. The paper's Section 4 property 2 —
// "a jump directly control dependent on a predicate P need not be
// included if P is not" — is justified for loops, where the back
// edge makes the loop header control dependent on every jump guard
// inside the body, so a needed jump's guard is always pulled into the
// slice first. It fails for C switches: a case that exits on every
// path (say "if (p) { s; break; } break;") gives fall-through no CFG
// edge at all, so no statement is control dependent on p or on the
// breaks — yet deleting the case's statements creates a brand-new
// fall-through path into the next case. Such breaks must be examined
// whenever their switch is in the slice; the postdominator/lexical
// test then decides, exactly as it does for the paper's Figure 14.
// Jumps admitted only by the widening carry their dependence closure
// along, since their guards are not otherwise in the slice.
// directCandidate implements condition (i).
func (a *Analysis) directCandidate(v int, set interface{ Has(int) bool }) bool {
	for _, p := range a.CDG.ParentIDs(v) {
		n := a.CFG.Nodes[p]
		if (n.Kind == cfg.KindEntry || n.Kind.IsPredicate()) && set.Has(p) {
			return true
		}
	}
	return false
}

// switchCandidate implements the fall-through widening.
func (a *Analysis) switchCandidate(v int, set interface{ Has(int) bool }) bool {
	sw := a.enclosingSwitch[v]
	return sw >= 0 && set.Has(sw)
}
