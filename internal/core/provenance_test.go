package core_test

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// checkProvenance asserts the two provenance properties on one slice:
//
//	sound    — every reason's evidence is itself in the slice (the
//	           From node; for jump-rule records, the nearest-PD and
//	           nearest-LS nodes, Exit standing for "end of program"),
//	complete — every statement in the slice (and Entry) carries at
//	           least one reason, criterion seeds carry a criterion
//	           record, and every rule-admitted jump carries its
//	           jump-rule record.
func checkProvenance(t *testing.T, label string, a *core.Analysis, s *core.Slice) {
	t.Helper()
	p, err := s.Explain()
	if err != nil {
		t.Fatalf("%s: Explain: %v", label, err)
	}
	exit := a.CFG.Exit.ID
	inOrEnd := func(id int) bool { return id == exit || s.Nodes.Has(id) }

	// Completeness: every member is explained.
	for _, id := range s.StatementNodes() {
		if len(p.Reasons(id)) == 0 {
			t.Errorf("%s: node %d (line %d) in slice with no reason",
				label, id, a.CFG.Nodes[id].Line)
		}
	}
	if entry := a.CFG.Entry.ID; s.Nodes.Has(entry) && len(p.Reasons(entry)) == 0 {
		t.Errorf("%s: entry node has no reason", label)
	}

	// Soundness: reasons only reference in-slice evidence, and no
	// reason is attached to a node outside the slice. Each node's
	// records are sorted.
	for id := 0; id < p.Len(); id++ {
		rs := p.Reasons(id)
		if len(rs) > 0 && !s.Nodes.Has(id) {
			t.Errorf("%s: node %d has reasons but is not in the slice", label, id)
		}
		if !slices.IsSortedFunc(rs, compareReasons) {
			t.Errorf("%s: node %d: records out of order: %v", label, id, rs)
		}
		for _, r := range rs {
			if r.From >= 0 && !s.Nodes.Has(r.From) {
				t.Errorf("%s: node %d reason %v: evidence %d not in slice", label, id, r.Kind, r.From)
			}
			if r.Kind == core.ReasonJumpRule {
				if r.NearestPD == r.NearestLS {
					t.Errorf("%s: node %d: jump-rule with equal PD/LS %d", label, id, r.NearestPD)
				}
				if !inOrEnd(r.NearestPD) || !inOrEnd(r.NearestLS) {
					t.Errorf("%s: node %d: jump-rule evidence PD=%d LS=%d not in slice",
						label, id, r.NearestPD, r.NearestLS)
				}
			}
		}
	}

	// Criterion seeds are marked as such.
	seeds, err := a.CriterionNodes(s.Criterion)
	if err != nil {
		t.Fatalf("%s: CriterionNodes: %v", label, err)
	}
	for _, v := range seeds {
		if !s.Nodes.Has(v) {
			continue
		}
		found := false
		for _, r := range p.Reasons(v) {
			if r.Kind == core.ReasonCriterion {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: seed node %d lacks a criterion reason", label, v)
		}
	}

	// Every rule-admitted jump carries its admission evidence.
	if len(s.JumpRules) == len(s.JumpsAdded) {
		for _, j := range s.JumpsAdded {
			found := false
			for _, r := range p.Reasons(j) {
				if r.Kind == core.ReasonJumpRule {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: admitted jump %d lacks a jump-rule reason", label, j)
			}
		}
	}
}

// compareReasons orders records by (Kind, From, NearestPD, NearestLS).
func compareReasons(a, b core.Reason) int {
	return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.From, b.From),
		cmp.Compare(a.NearestPD, b.NearestPD), cmp.Compare(a.NearestLS, b.NearestLS))
}

// TestPropertyProvenanceSoundAndComplete checks provenance on the
// Figure 7 slice of every criterion across 240 generated programs
// (120 structured + 120 unstructured), plus the conventional and
// Figure 12/13 slices on the structured corpus.
func TestPropertyProvenanceSoundAndComplete(t *testing.T) {
	forEachCase(t, progen.Structured, 120, func(t *testing.T, seed int64, a *core.Analysis, c core.Criterion) {
		s, err := a.Agrawal(c)
		if err != nil {
			t.Fatalf("structured seed %d: %v", seed, err)
		}
		checkProvenance(t, labelFor("structured/agrawal", seed, c), a, s)
		conv, err := a.Conventional(c)
		if err != nil {
			t.Fatalf("structured seed %d: %v", seed, err)
		}
		checkProvenance(t, labelFor("structured/conventional", seed, c), a, conv)
		if a.Structured() {
			fig12, err := a.AgrawalStructured(c)
			if err != nil {
				t.Fatalf("structured seed %d: %v", seed, err)
			}
			checkProvenance(t, labelFor("structured/fig12", seed, c), a, fig12)
			fig13, err := a.AgrawalConservative(c)
			if err != nil {
				t.Fatalf("structured seed %d: %v", seed, err)
			}
			checkProvenance(t, labelFor("structured/fig13", seed, c), a, fig13)
		}
	})
	forEachCase(t, progen.Unstructured, 120, func(t *testing.T, seed int64, a *core.Analysis, c core.Criterion) {
		s, err := a.Agrawal(c)
		if err != nil {
			t.Fatalf("unstructured seed %d: %v", seed, err)
		}
		checkProvenance(t, labelFor("unstructured/agrawal", seed, c), a, s)
	})
}

func labelFor(prefix string, seed int64, c core.Criterion) string {
	return fmt.Sprintf("%s seed %d %s", prefix, seed, c)
}

// TestExplainFigure5WorkedExample pins the jump-rule evidence of the
// paper's continue example: the continue on line 7 is admitted
// because its nearest postdominator in the slice is the loop header
// (line 3) while its nearest lexical successor in the slice is line
// 8; the continue on line 11 stays out.
func TestExplainFigure5WorkedExample(t *testing.T) {
	f := paper.Fig5()
	a, err := core.Analyze(f.Parse())
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Agrawal(core.Criterion{Var: "positives", Line: 14})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Explain()
	if err != nil {
		t.Fatal(err)
	}
	listing := p.Listing()
	if !strings.Contains(listing, "  7: continue;  // jump-rule(nearest-PD=3, nearest-LS=8)") {
		t.Errorf("listing lacks the worked-example jump rule:\n%s", listing)
	}
	if strings.Contains(listing, " 11: continue;") {
		t.Errorf("listing includes the rejected continue on line 11:\n%s", listing)
	}
	if got := p.LineReasons()[14]; len(got) != 1 || got[0] != "criterion" {
		t.Errorf("line 14 reasons = %v, want [criterion]", got)
	}
}

// TestExplainDynamicSlice checks provenance over the dynamic slicer's
// repaired slices too (its JumpRules come through RepairJumps).
func TestExplainDynamicSlice(t *testing.T) {
	// Covered via RepairJumps in TestRepairJumpsOnHandBuiltSet for
	// rule capture; here just assert Explain tolerates a slice whose
	// base set was not a conventional closure.
	f := paper.Fig3()
	a, err := core.Analyze(f.Parse())
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Agrawal(core.Criterion{Var: "positives", Line: 15})
	if err != nil {
		t.Fatal(err)
	}
	checkProvenance(t, "fig3", a, s)
}
