package core

import (
	"fmt"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
)

// ErrUnstructured is returned (wrapped) by the Figure 12 and Figure 13
// algorithms when the program contains a non-structured jump; their
// correctness arguments (Section 4, properties 1 and 2) only hold for
// structured programs.
var ErrUnstructured = fmt.Errorf("program contains non-structured jump statements")

// algorithm is one slicer of this package. All of them take the
// conventional slice and then, except the conventional slicer itself,
// run one jump-admission loop to a fixpoint (repairJumps); they
// differ only in which jumps a pass visits and which rule admits one.
type algorithm struct {
	// name is the Slice.Algorithm string.
	name string
	// figure names the paper's figure in error texts; site is the
	// cancellation site of the loop.
	figure, site string
	// worklist returns the live jumps one pass visits, in visiting
	// order; nil for the conventional slicer, which admits no jump.
	worklist func(*Analysis) []int
	// structured refuses programs that are not structured.
	structured bool
	// candidates restricts a pass to condition-(i) candidates (see
	// candidate).
	candidates bool
	// test admits a jump only when its nearest postdominator in the
	// slice differs from its nearest lexical successor in the slice;
	// without it every visited jump is admitted.
	test bool
}

var (
	conventional = &algorithm{name: "conventional"}
	figure7      = &algorithm{name: "agrawal", figure: "Figure 7", site: "fig7", test: true,
		worklist: func(a *Analysis) []int { return a.jumpsPDT }}
	figure7LST = &algorithm{name: "agrawal-lst", figure: "Figure 7", site: "fig7", test: true,
		worklist: func(a *Analysis) []int { return a.jumpsLST }}
	figure12 = &algorithm{name: "agrawal-structured", figure: "Figure 12", site: "fig12",
		structured: true, candidates: true, test: true,
		worklist: func(a *Analysis) []int { return a.jumpsPDT }}
	figure13 = &algorithm{name: "agrawal-conservative", figure: "Figure 13", site: "fig13",
		structured: true, candidates: true,
		worklist: func(a *Analysis) []int { return a.jumpsLex }}
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
func (a *Analysis) Agrawal(c Criterion) (*Slice, error) { return a.slice(c, figure7, a.engine()) }

// AgrawalLST is the Figure 7 algorithm driven by preorder traversals
// of the lexical successor tree instead of the postdominator tree —
// the alternative the paper notes yields the same final slice, though
// possibly with a different number of traversals. It exists for the
// equivalence experiments.
func (a *Analysis) AgrawalLST(c Criterion) (*Slice, error) { return a.slice(c, figure7LST, a.engine()) }

// AgrawalStructured computes the slice with the paper's simplified
// algorithm for structured programs (Figure 12): preorder traversal
// of the postdominator tree adds each jump that is (i) a candidate
// (directly control dependent on a predicate in the slice, widened
// for C switch fall-through; see candidate) and (ii) whose nearest
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
//   - Added jumps carry their dependence closure (see repairJumps).
func (a *Analysis) AgrawalStructured(c Criterion) (*Slice, error) {
	return a.slice(c, figure12, a.engine())
}

// AgrawalConservative computes the slice with the paper's conservative
// algorithm for structured programs (Figure 13): every jump directly
// control dependent on a predicate in the slice is included, with no
// postdominator/lexical-successor test at all. The result may include
// jumps the Figure 12 algorithm proves unnecessary (Figure 14-c versus
// 14-b) but never misses a needed one, and the rule can be applied
// on the fly while the conventional slice is being computed.
//
// Like Figure 12 it iterates to a fixpoint, visiting the live jumps in
// lexical order: an added jump's dependence closure can make further
// jumps candidates (the on-the-fly reading of the paper's Figure 13 —
// detect jumps while the conventional closure grows — has the same
// effect). It traverses no tree, so Traversals stays 0.
func (a *Analysis) AgrawalConservative(c Criterion) (*Slice, error) {
	return a.slice(c, figure13, a.engine())
}

// slice computes c's slice with alg on the closure engine eng: the
// structured check, the conventional closure, the jump-admission
// loop, label re-association.
//
// The closure walks the slicing relation (see depEngine), so the
// conventional slice already satisfies the conditional-jump
// adaptation and switch enclosure. The context is checked once up
// front: a closure smaller than the engines' cadence never consults
// it.
func (a *Analysis) slice(c Criterion, alg *algorithm, eng depEngine) (*Slice, error) {
	if alg.structured && !a.Structured() {
		return nil, fmt.Errorf("core: %s algorithm: %w", alg.figure, ErrUnstructured)
	}
	if err := a.checkCancel("closure"); err != nil {
		return nil, err
	}
	seeds, err := a.resolveCriterion(c)
	if err != nil {
		return nil, err
	}
	set, err := eng.backwardClosure(seeds)
	if err != nil {
		return nil, err
	}
	// The dummy entry predicate (the paper's node 0) is in every
	// slice by construction. The closure reaches it through any live
	// statement's control dependence chain; seeding it explicitly
	// also covers criteria in dead code, whose statements have no
	// dependence path to anything.
	set.Add(a.CFG.Entry.ID)
	s := &Slice{Analysis: a, Criterion: c, Algorithm: alg.name, Nodes: set}
	if alg.worklist != nil {
		jumps, rules, traversals, err := a.repairJumps(set, alg, eng)
		if err != nil {
			return nil, err
		}
		s.JumpsAdded, s.JumpRules = jumps, rules
		if alg.test {
			s.Traversals = traversals
		}
	}
	s.Relabeled = a.retargetLabels(set)
	a.recordSlice(set)
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
	return a.repairJumps(set, figure7, a.engine())
}

// repairJumps is the one jump-admission loop of Figures 7, 12 and 13:
// passes over alg's worklist of live jumps add, with the closure of
// its dependences, every jump outside set that alg admits, until a
// pass adds nothing. Each pass touches only jump nodes; non-jumps were
// never acted on, so the additions — and the reported pass count,
// which includes the final unproductive one — are identical to a
// full-preorder scan. Additions take effect immediately within a
// pass. rules is parallel to jumpsAdded when alg applies the rule and
// nil otherwise.
//
// The closure of an admitted jump is the paper's for Figure 7. For a
// condition-(i) candidate, Section 4 property 2 says its dependences
// are already in the slice, so the closure is a no-op for break,
// continue and goto; running it anyway is faithful and also covers
// the two cases the property does not: the value operand of
// "return e" (a data dependence the property's argument never
// mentions) and widened (switch fall-through) candidates whose guards
// are outside the slice.
func (a *Analysis) repairJumps(set *bits.Set, alg *algorithm, eng depEngine) (jumpsAdded []int, rules []JumpRule, traversals int, err error) {
	worklist := alg.worklist(a)
	examined := 0
	for {
		traversals++
		a.m.traversals.Add(1)
		if err := a.checkCancel(alg.site); err != nil {
			return nil, nil, traversals, err
		}
		changed := false
		for _, v := range worklist {
			if set.Has(v) || alg.candidates && a.candidate(v, set) < 0 {
				continue
			}
			a.m.jumpsExamined.Add(1)
			if examined++; examined%cancelCheckJumps == 0 {
				if err := a.checkCancel(alg.site); err != nil {
					return nil, nil, traversals, err
				}
			}
			var rule JumpRule
			if alg.test {
				rule = JumpRule{NearestPD: a.nearestPostdomInSlice(v, set), NearestLS: a.nearestLexInSlice(v, set)}
				if rule.NearestPD == rule.NearestLS {
					continue
				}
			}
			if err := eng.grow(set, v); err != nil {
				return nil, nil, traversals, err
			}
			jumpsAdded = append(jumpsAdded, v)
			if alg.test {
				rules = append(rules, rule)
			}
			a.m.jumpsAdmitted.Add(1)
			changed = true
		}
		if !changed {
			return jumpsAdded, rules, traversals, nil
		}
		if traversals > len(a.CFG.Nodes)+1 {
			// Each productive pass adds at least one jump, so the pass
			// count is bounded by the jump count; this guard only
			// trips on an implementation bug.
			return nil, nil, traversals, fmt.Errorf("core: %s loop failed to converge after %d traversals", alg.figure, traversals)
		}
	}
}

// candidate returns the evidence that jump v is a candidate of the
// structured algorithms (Figures 12 and 13) — an in-slice predicate,
// the entry node, or an in-slice switch tag — or -1 when it is none.
// The candidates are condition (i) of the paper plus a necessary
// widening for C switch fall-through.
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
func (a *Analysis) candidate(v int, set *bits.Set) int {
	for _, p := range a.CDG.ParentIDs(v) {
		n := a.CFG.Nodes[p]
		if (n.Kind == cfg.KindEntry || n.Kind.IsPredicate()) && set.Has(p) {
			return p
		}
	}
	if sw := a.enclosingSwitch[v]; sw >= 0 && set.Has(sw) {
		return sw
	}
	return -1
}

// recordSlice reports a finished slice to the registry: one slice
// counted, its final node count observed. A single nil-check when
// recording is disabled.
func (a *Analysis) recordSlice(set *bits.Set) {
	a.m.slices.Add(1)
	if a.m.sliceNodes != nil {
		a.m.sliceNodes.Observe(int64(set.Len()))
	}
}
