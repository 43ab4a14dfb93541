package core

import (
	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
)

// Conventional computes the conventional (jump-unaware) slice: the
// backward transitive closure of data and control dependence from the
// criterion, plus the paper's conditional-jump adaptation — when the
// predicate of a conditional jump statement such as "if (e) goto L" is
// in the slice, the associated jump is included too, "for the
// predicate will not serve any purpose in the slice without the
// accompanying jump" (Section 3).
//
// On programs without jump statements this is the classic Ottenstein &
// Ottenstein PDG slice and is correct; on programs with jumps it is
// the baseline the paper's Figures 3-b and 5-b show to be wrong.
func (a *Analysis) Conventional(c Criterion) (*Slice, error) {
	s, err := a.conventionalWith(c, a.engine())
	if err != nil {
		return nil, err
	}
	a.recordSlice("conventional", s.Nodes)
	return s, nil
}

// conventionalWith is Conventional parameterized by the closure
// engine, shared by the single-criterion and batch entry points.
func (a *Analysis) conventionalWith(c Criterion, eng depEngine) (*Slice, error) {
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
	if err := a.normalizeSlice(set, nil, eng); err != nil {
		return nil, err
	}
	return &Slice{
		Analysis:  a,
		Criterion: c,
		Algorithm: "conventional",
		Nodes:     set,
		Relabeled: a.retargetLabels(set),
	}, nil
}

// normalizeSlice closes a slice set under the two invariants every
// slice of this package maintains:
//
//  1. The conditional-jump adaptation (Section 3): when the predicate
//     of a conditional jump statement such as "if (e) goto L" is in
//     the slice, the associated jump is included too (with the
//     closure of its dependences). A closure can pull in further
//     conditional-jump predicates — the paper's Figure 8, where
//     including jumps 11 and 13 pulls in predicate 9, whose own goto
//     must then be included.
//  2. The switch-enclosure invariant: a statement inside a switch
//     brings the switch tag (with its dependence closure). A case
//     body statement that postdominates the dispatch — fall-through
//     into a default, say — is not control dependent on the switch,
//     so the dependence closure alone can strand it outside its
//     enclosing construct; a slice is a projection of the program, so
//     that must not happen (and the lexical-successor test of Figure
//     7 implicitly assumes it does not).
//
// work lists the members that may violate an invariant: only what the
// last closure added when the rest of the set is already closed, or
// nil for a set of unknown origin, which checks every member. Each is
// checked against the two per-node indexes (condJumpOf and
// enclosingSwitch), and each closure an invariant forces pushes its
// own additions, so the loop visits every added node once instead of
// rescanning all conditional jumps and switch-enclosed nodes per
// pass. The least fixpoint is unique, so the set reached is the
// pass-based loop's (normalize_oracle_test.go keeps that loop and
// pins them equal).
//
// Engines whose closures bake the invariants in as dependence edges
// (the batch condensation) are already at the fixpoint, so the loop
// is skipped outright.
func (a *Analysis) normalizeSlice(set *bits.Set, work []int, eng depEngine) error {
	if eng.closuresNormalized() {
		return nil
	}
	if err := a.checkCancel("normalize"); err != nil {
		return err
	}
	if work == nil {
		work = set.AppendMembers(make([]int, 0, set.Len()))
	}
	var err error
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if j := a.condJumpOf[v]; j >= 0 && !set.Has(j) {
			if work, err = eng.grow(set, j, work); err != nil {
				return err
			}
		}
		if sw := a.enclosingSwitch[v]; sw >= 0 && !set.Has(sw) {
			if work, err = eng.grow(set, sw, work); err != nil {
				return err
			}
		}
	}
	return nil
}

// conditionalJumpOf returns the jump node of a conditional jump
// statement: an if with no else whose then-branch consists of exactly
// one jump statement. Returns nil for ordinary predicates.
func (a *Analysis) conditionalJumpOf(n *cfg.Node) *cfg.Node {
	ifStmt, ok := lang.Unlabel(n.Stmt).(*lang.IfStmt)
	if !ok || ifStmt.Else != nil {
		return nil
	}
	body := lang.Unlabel(ifStmt.Then)
	for {
		blk, ok := body.(*lang.BlockStmt)
		if !ok {
			break
		}
		if len(blk.List) != 1 {
			return nil
		}
		body = lang.Unlabel(blk.List[0])
	}
	if !lang.IsJump(body) {
		return nil
	}
	return a.CFG.NodeFor(body)
}

// RetargetLabels exposes the label re-association step to baseline
// algorithms that produce their own slice sets.
func (a *Analysis) RetargetLabels(set *bits.Set) map[string]int {
	return a.retargetLabels(set)
}

// NormalizeSlice exposes the slice invariants (conditional-jump
// adaptation and switch enclosure) to baseline algorithms that build
// their own slice sets. The error is non-nil only when the Analysis's
// context was canceled mid-normalization.
func (a *Analysis) NormalizeSlice(set *bits.Set) error {
	return a.normalizeSlice(set, nil, a.engine())
}

// retargetLabels applies the paper's final step: "For each goto
// statement, Goto L, in Slice, if the statement labeled L is not in
// Slice then associate the label L with its nearest postdominator in
// Slice." The returned map carries label → node ID (Exit means the
// label lands after the last statement).
func (a *Analysis) retargetLabels(set *bits.Set) map[string]int {
	out := map[string]int{}
	for _, n := range a.gotoNodes {
		if !set.Has(n.ID) {
			continue
		}
		label := lang.Unlabel(n.Stmt).(*lang.GotoStmt).Label
		target := a.CFG.LabelNode[label]
		if target == nil || set.Has(target.ID) {
			continue
		}
		out[label] = a.nearestPostdomInSlice(target.ID, set)
	}
	return out
}
