package core

import (
	"reflect"
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

func TestStructuredClassification(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"no jumps", "x = 1;\nwrite(x);", true},
		{"break in loop", "while (x) { break; }\nwrite(x);", true},
		{"continue in loop", "while (x) { continue; }\nwrite(x);", true},
		{"top-level return", "return;\n", true},
		{"forward goto", "if (x) goto L;\ny = 1;\nL: write(y);", true},
		{"backward goto", "L: x = x + 1;\nif (x < 3) goto L;\nwrite(x);", false},
		{"goto into sibling branch region", paper.Fig10().Source, false},
		{"forward goto across construct", "if (x) goto After;\nwhile (y) { y = y - 1; }\nAfter: write(y);", true},
	}
	for _, c := range cases {
		a := MustAnalyze(parse(t, c.src))
		if got := a.Structured(); got != c.want {
			t.Errorf("%s: Structured() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLiveReportsDeadCode(t *testing.T) {
	a := MustAnalyze(parse(t, "goto L;\nx = 1;\nL: write(x);"))
	dead := a.CFG.NodesAtLine(2)[0]
	if a.Live(dead.ID) {
		t.Error("statement after unconditional goto should be dead")
	}
	live := a.CFG.NodesAtLine(3)[0]
	if !a.Live(live.ID) {
		t.Error("goto target should be live")
	}
}

func TestSliceHasAndStatementNodes(t *testing.T) {
	f := paper.Fig1()
	a := MustAnalyze(f.Parse())
	s, err := a.Agrawal(Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.StatementNodes() {
		if !s.Has(id) {
			t.Errorf("StatementNodes returned %d but Has(%d) is false", id, id)
		}
		k := a.CFG.Nodes[id].Kind
		if k == cfg.KindEntry || k == cfg.KindExit {
			t.Errorf("StatementNodes contains %v", a.CFG.Nodes[id])
		}
	}
	// Entry is in the slice set but excluded from the statement view.
	if !s.Has(a.CFG.Entry.ID) {
		t.Error("entry (node 0) should be in every slice set")
	}
	if got, want := s.LiveStatementNodes(), s.StatementNodes(); !reflect.DeepEqual(got, want) {
		t.Errorf("on dead-code-free input, live view %v != statement view %v", got, want)
	}
}

func TestCriterionString(t *testing.T) {
	if got := (Criterion{Var: "positives", Line: 15}).String(); got != "positives@15" {
		t.Errorf("String = %q", got)
	}
}

func TestMustAnalyzePanicsOnBadGraph(t *testing.T) {
	// MustAnalyze itself cannot fail on a parsed program today; check
	// the panic plumbing through a nil-program crash instead.
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustAnalyze(nil)
}

func TestAgrawalLSTSameTraversalGuarantees(t *testing.T) {
	// The LST-driven variant also terminates and matches Figure 7 on
	// the corpus (covered in figures_test); here: its Traversals field
	// is populated and at least 1.
	f := paper.Fig10()
	a := MustAnalyze(f.Parse())
	s, err := a.AgrawalLST(Criterion{Var: "y", Line: 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Traversals < 1 {
		t.Errorf("traversals = %d", s.Traversals)
	}
	if s.Algorithm != "agrawal-lst" {
		t.Errorf("algorithm = %q", s.Algorithm)
	}
}

func TestRepairJumpsOnHandBuiltSet(t *testing.T) {
	// Feed RepairJumps a base set that is not a conventional slice:
	// just the two writes of Figure 3. The repair must still add the
	// jumps needed to order them.
	f := paper.Fig3()
	a := MustAnalyze(f.Parse())
	seed, err := a.Conventional(Criterion{Var: "positives", Line: 15})
	if err != nil {
		t.Fatal(err)
	}
	added, rules, traversals, err := a.RepairJumps(seed.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if traversals < 1 {
		t.Errorf("traversals = %d", traversals)
	}
	if len(rules) != len(added) {
		t.Errorf("rules = %d entries, want %d (parallel to added)", len(rules), len(added))
	}
	for i, r := range rules {
		if r.NearestPD == r.NearestLS {
			t.Errorf("rule %d: nearest-PD == nearest-LS (%d); the rule cannot have fired", i, r.NearestPD)
		}
	}
	// Idempotence: repairing an already-repaired set adds nothing.
	added2, _, _, err := a.RepairJumps(seed.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(added2) != 0 {
		t.Errorf("second repair added %d jumps, want 0", len(added2))
	}
	_ = added
}

func TestRelabeledLinesEndOfProgram(t *testing.T) {
	// A goto in the slice whose label's statement and every
	// postdominator of it are outside the slice: the label re-attaches
	// to Exit (line 0 in RelabeledLines).
	prog := parse(t, `read(x);
if (x > 0) goto End;
write(x);
End: y = 1;`)
	a := MustAnalyze(prog)
	s, err := a.Agrawal(Criterion{Var: "x", Line: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(a.CFG.LabelNode["End"]) {
		// Only meaningful when the goto is kept and End's statement
		// is not.
		got := s.RelabeledLines()
		if l, ok := got["End"]; ok && l != 0 {
			t.Errorf("End re-attached to line %d, want 0 (end of program)", l)
		}
	}
}

func TestAnalysisSharedAcrossCriteria(t *testing.T) {
	// One Analysis must serve many criteria without interference.
	f := paper.Fig1()
	a := MustAnalyze(f.Parse())
	s1, err := a.Agrawal(Criterion{Var: "positives", Line: 12})
	if err != nil {
		t.Fatal(err)
	}
	first := append([]int(nil), s1.Lines()...)
	s2, err := a.Agrawal(Criterion{Var: "sum", Line: 11})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, s2.Lines()) {
		t.Error("different criteria should give different slices here")
	}
	s3, err := a.Agrawal(Criterion{Var: "positives", Line: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, s3.Lines()) {
		t.Errorf("recomputed slice %v differs from first %v — analysis state leaked", s3.Lines(), first)
	}
}

func TestSumSliceOfFigure1(t *testing.T) {
	// The complementary criterion of the paper's Figure 1: slicing on
	// sum keeps the arithmetic chain and drops the positives counter.
	f := paper.Fig1()
	a := MustAnalyze(f.Parse())
	s, err := a.Agrawal(Criterion{Var: "sum", Line: 11})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4, 5, 6, 8, 9, 10, 11}
	if got := s.Lines(); !reflect.DeepEqual(got, want) {
		t.Errorf("sum slice = %v, want %v", got, want)
	}
}

// TestFootprintChargesOneReachTable: reaching definitions keep only
// the In table once the fixpoint is reached, so the footprint's
// definition term is exactly the bytes In holds — half the two-table
// (In and Out) charge it made when both were kept.
func TestFootprintChargesOneReachTable(t *testing.T) {
	a, err := Analyze(progen.Structured(progen.Config{Seed: 7, Stmts: 4000}))
	if err != nil {
		t.Fatal(err)
	}
	n, defs := int64(a.CFG.NumNodes()), int64(len(a.RD.Defs))
	var held int64
	for _, in := range a.RD.In {
		held += int64((in.Cap()+63)/64) * 8
	}
	term := reachSetBytes(n, defs)
	if term != held {
		t.Errorf("definition term %d bytes, In holds %d", term, held)
	}
	twoTables := 2 * n * ((defs + 63) / 64) * 8
	if 2*term != twoTables {
		t.Errorf("definition term %d bytes is not half the two-table charge %d", term, twoTables)
	}
	t.Logf("%d nodes, %d definitions: definition term %d bytes (was %d), footprint %d bytes", n, defs, term, twoTables, a.Footprint())

	// The conditional-jump index is one int per node, and the charge
	// follows the field: without it the analysis weighs 8n less.
	without := *a
	without.condJumpOf = nil
	if d := a.Footprint() - without.Footprint(); d != 8*n {
		t.Errorf("condJumpOf charged %d bytes, want %d (8 per node)", d, 8*n)
	}
}
