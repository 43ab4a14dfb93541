package core

import (
	"errors"
	"reflect"
	"testing"

	"jumpslice/internal/paper"
)

func analyzeFig(t *testing.T, f *paper.Figure) *Analysis {
	t.Helper()
	a, err := Analyze(f.Parse())
	if err != nil {
		t.Fatalf("%s: analyze: %v", f.Name, err)
	}
	return a
}

func crit(f *paper.Figure) Criterion {
	return Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
}

// TestFigures runs every corpus figure through the conventional and
// Figure 7 algorithms and, for structured programs, the Figure 12 and
// Figure 13 algorithms, asserting the paper's slice line sets
// verbatim. This covers the paper's Figures 1, 3, 5, 8, 10, 14 and 16.
func TestFigures(t *testing.T) {
	for _, f := range paper.All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			a := analyzeFig(t, f)
			c := crit(f)

			conv, err := a.Conventional(c)
			if err != nil {
				t.Fatalf("conventional: %v", err)
			}
			if got := conv.Lines(); !reflect.DeepEqual(got, f.ConventionalLines) {
				t.Errorf("conventional slice = %v, want %v", got, f.ConventionalLines)
			}

			ag, err := a.Agrawal(c)
			if err != nil {
				t.Fatalf("agrawal: %v", err)
			}
			if got := ag.Lines(); !reflect.DeepEqual(got, f.AgrawalLines) {
				t.Errorf("Figure 7 slice = %v, want %v", got, f.AgrawalLines)
			}
			if ag.Traversals != f.WantTraversals {
				t.Errorf("Figure 7 traversals = %d, want %d", ag.Traversals, f.WantTraversals)
			}
			if got := ag.RelabeledLines(); !reflect.DeepEqual(got, f.RetargetedLabels) {
				t.Errorf("retargeted labels = %v, want %v", got, f.RetargetedLabels)
			}

			if got := a.Structured(); got != f.Structured {
				t.Errorf("Structured() = %v, want %v", got, f.Structured)
			}

			if f.Structured {
				st, err := a.AgrawalStructured(c)
				if err != nil {
					t.Fatalf("Figure 12: %v", err)
				}
				if got := st.Lines(); !reflect.DeepEqual(got, f.StructuredLines) {
					t.Errorf("Figure 12 slice = %v, want %v", got, f.StructuredLines)
				}
				cons, err := a.AgrawalConservative(c)
				if err != nil {
					t.Fatalf("Figure 13: %v", err)
				}
				if got := cons.Lines(); !reflect.DeepEqual(got, f.ConservativeLines) {
					t.Errorf("Figure 13 slice = %v, want %v", got, f.ConservativeLines)
				}
			} else {
				if _, err := a.AgrawalStructured(c); !errors.Is(err, ErrUnstructured) {
					t.Errorf("Figure 12 on unstructured program: err = %v, want ErrUnstructured", err)
				}
				if _, err := a.AgrawalConservative(c); !errors.Is(err, ErrUnstructured) {
					t.Errorf("Figure 13 on unstructured program: err = %v, want ErrUnstructured", err)
				}
			}
		})
	}
}

// TestFigure10SecondTraversalAddsNode4 pins down the paper's worked
// trace of Figure 10: the first traversal adds jumps 7 and 2 (pulling
// in predicate 1), the second adds jump 4.
func TestFigure10SecondTraversalAddsNode4(t *testing.T) {
	f := paper.Fig10()
	a := analyzeFig(t, f)
	s, err := a.Agrawal(crit(f))
	if err != nil {
		t.Fatal(err)
	}
	addedLines := s.JumpLines()
	// Preorder visits jump 4 first (rejected in traversal 1), then 7,
	// then 2; traversal 2 accepts 4.
	want := []int{7, 2, 4}
	if !reflect.DeepEqual(addedLines, want) {
		t.Errorf("jumps added in order %v, want %v", addedLines, want)
	}
	if s.Traversals != 3 {
		t.Errorf("traversals = %d, want 3 (two productive + one final)", s.Traversals)
	}
}

// TestFigure3JumpOrder pins the paper's worked trace of Figure 3:
// node 13 is the first jump encountered and added, then node 7; node
// 11 is examined after 13's inclusion and rejected.
func TestFigure3JumpOrder(t *testing.T) {
	f := paper.Fig3()
	a := analyzeFig(t, f)
	s, err := a.Agrawal(crit(f))
	if err != nil {
		t.Fatal(err)
	}
	addedLines := s.JumpLines()
	if !reflect.DeepEqual(addedLines, []int{13, 7}) {
		t.Errorf("jumps added = %v, want [13 7]", addedLines)
	}
}

// TestFigure8ClosurePullsPredicate9 checks the dependence-closure
// behaviour the paper highlights for Figure 8: adding jumps 11 and 13
// forces predicate 9 (and its conditional goto) into the slice.
func TestFigure8ClosurePullsPredicate9(t *testing.T) {
	f := paper.Fig8()
	a := analyzeFig(t, f)

	conv, err := a.Conventional(crit(f))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range conv.Lines() {
		if l == 9 {
			t.Fatal("line 9 must not be in the conventional slice")
		}
	}
	s, err := a.Agrawal(crit(f))
	if err != nil {
		t.Fatal(err)
	}
	has9 := false
	for _, l := range s.Lines() {
		if l == 9 {
			has9 = true
		}
	}
	if !has9 {
		t.Error("Figure 7 slice must include predicate 9 via jump closure")
	}
}

// TestLSTDrivenTraversalSameSlice verifies the paper's claim that
// driving the search by preorder traversal of the lexical successor
// tree yields the same final slice as the postdominator tree.
func TestLSTDrivenTraversalSameSlice(t *testing.T) {
	for _, f := range paper.All() {
		a := analyzeFig(t, f)
		c := crit(f)
		pdtSlice, err := a.Agrawal(c)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		lstSlice, err := a.AgrawalLST(c)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !reflect.DeepEqual(pdtSlice.Lines(), lstSlice.Lines()) {
			t.Errorf("%s: PDT-driven %v != LST-driven %v",
				f.Name, pdtSlice.Lines(), lstSlice.Lines())
		}
	}
}

// TestStructuredAgreesWithGeneral: on structured programs the Figure
// 12 algorithm must compute exactly the Figure 7 slice (the paper's
// Section 4 simplification argument).
func TestStructuredAgreesWithGeneral(t *testing.T) {
	for _, f := range paper.All() {
		if !f.Structured {
			continue
		}
		a := analyzeFig(t, f)
		c := crit(f)
		general, err := a.Agrawal(c)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		simplified, err := a.AgrawalStructured(c)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !reflect.DeepEqual(general.Lines(), simplified.Lines()) {
			t.Errorf("%s: Figure 7 %v != Figure 12 %v",
				f.Name, general.Lines(), simplified.Lines())
		}
	}
}

// TestConservativeIsSuperset: Figure 13 slices contain Figure 12
// slices, and the extra statements are only jump statements.
func TestConservativeIsSuperset(t *testing.T) {
	for _, f := range paper.All() {
		if !f.Structured {
			continue
		}
		a := analyzeFig(t, f)
		c := crit(f)
		precise, err := a.AgrawalStructured(c)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		cons, err := a.AgrawalConservative(c)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, id := range precise.StatementNodes() {
			if !cons.Has(id) {
				t.Errorf("%s: node %d in Figure 12 slice missing from Figure 13 slice",
					f.Name, id)
			}
		}
		for _, id := range cons.StatementNodes() {
			if !precise.Has(id) && !a.CFG.Nodes[id].Kind.IsJump() {
				t.Errorf("%s: conservative extra node %d is not a jump", f.Name, id)
			}
		}
	}
}

// TestConventionalNeverAddsUnconditionalJumps: the premise of the
// paper — no statement is data or control... rather, the conventional
// algorithm includes a jump only via the conditional-jump adaptation,
// i.e. only jumps that are the sole branch of an included predicate.
func TestConventionalNeverAddsFreeJumps(t *testing.T) {
	for _, f := range paper.All() {
		a := analyzeFig(t, f)
		conv, err := a.Conventional(crit(f))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, id := range conv.StatementNodes() {
			n := a.CFG.Nodes[id]
			if !n.Kind.IsJump() {
				continue
			}
			// Every jump in a conventional slice must be the
			// conditional jump of some included predicate.
			justified := false
			for _, p := range a.CFG.Nodes {
				if p.Kind.IsPredicate() && conv.Has(p.ID) {
					if j := a.conditionalJumpOf(p); j != nil && j.ID == id {
						justified = true
					}
				}
			}
			if !justified {
				t.Errorf("%s: conventional slice contains unjustified jump %s", f.Name, n)
			}
		}
	}
}

func TestCriterionErrors(t *testing.T) {
	f := paper.Fig1()
	a := analyzeFig(t, f)
	if _, err := a.Conventional(Criterion{Var: "positives", Line: 99}); err == nil {
		t.Error("expected error for criterion on a non-statement line")
	}
	if _, err := a.Conventional(Criterion{Var: "nosuchvar", Line: 1}); err == nil {
		t.Error("expected error for unknown variable with no reaching defs")
	}
}

func TestCriterionOnDefiningStatement(t *testing.T) {
	// Slicing on the defining statement itself: criterion x@2 seeds at
	// the assignment.
	a := MustAnalyze(parse(t, "read(y);\nx = y + 1;\nwrite(x);"))
	s, err := a.Agrawal(Criterion{Var: "x", Line: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Lines(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("slice = %v, want [1 2]", got)
	}
}

func TestCriterionLineWithoutVar(t *testing.T) {
	// Line 3 neither uses nor defines x: seeds are x's reaching defs.
	a := MustAnalyze(parse(t, "read(x);\nx = x + 1;\ny = 0;\nwrite(y);"))
	s, err := a.Agrawal(Criterion{Var: "x", Line: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Lines(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("slice = %v, want [1 2]", got)
	}
}
