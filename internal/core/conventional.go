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
	return a.slice(c, conventional, a.engine())
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

// NormalizeSlice closes a slice set built by other means — a
// baseline's, or a dynamic slice — under the two slice invariants
// every slice of this package keeps: the conditional-jump adaptation
// and switch enclosure (see condJumpOf and enclosingSwitch). One pass
// over the members collects each invariant target missing from the
// set, and one walk of the slicing relation grows them; the walk
// closes everything it adds under both invariants, so the members the
// set started with are the only ones to check. Those members need not
// be dependence-closed (Weiser's dataflow slice is not). The error is
// non-nil only when the Analysis's context was canceled mid-closure.
func (a *Analysis) NormalizeSlice(set *bits.Set) error {
	inv := a.invariants()
	var missing []int
	for v := set.NextSet(0); v >= 0; v = set.NextSet(v + 1) {
		for _, t := range inv {
			if d := t[v]; d >= 0 && !set.Has(d) {
				missing = append(missing, d)
			}
		}
	}
	_, err := a.PDG.Grow(set, missing, a.cancelf, inv...)
	return err
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
		target, ok := a.CFG.LabelNode[label]
		if !ok || set.Has(target) {
			continue
		}
		out[label] = a.nearestPostdomInSlice(target, set)
	}
	return out
}
