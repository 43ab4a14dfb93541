package dynslice

import (
	"reflect"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/interp"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

func analyze(t *testing.T, src string) *core.Analysis {
	t.Helper()
	a, err := core.Analyze(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDynamicSmallerThanStaticOnOneSidedInput: when every input is
// non-positive, Figure 5-a never increments positives, and the
// dynamic slice drops the increment and its guard — statements the
// static slice must keep.
func TestDynamicSmallerThanStaticOnOneSidedInput(t *testing.T) {
	f := paper.Fig5()
	a := analyze(t, f.Source)
	c := core.Criterion{Var: "positives", Line: 14}
	in := []int64{-1, -2, -3}

	dyn, err := Slice(a, c, Options{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	static, err := a.Agrawal(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Lines()) >= len(static.Lines()) {
		t.Errorf("dynamic slice %v not smaller than static %v", dyn.Lines(), static.Lines())
	}
	has8 := false
	for _, l := range dyn.Lines() {
		if l == 8 {
			has8 = true
		}
	}
	if has8 {
		t.Errorf("dynamic slice %v keeps the never-executed increment (line 8)", dyn.Lines())
	}
}

// TestDynamicSubsetOfStatic: on the corpus, the dynamic slice's
// non-jump statements are a subset of the static Agrawal slice's.
// Jump statements are excluded from the property: the Figure 7 repair
// tests "nearest postdominator in the slice vs nearest lexical
// successor in the slice", and against a smaller (dynamic) base set a
// jump can be needed that the larger static slice renders
// unnecessary.
func TestDynamicSubsetOfStatic(t *testing.T) {
	inputs := [][]int64{nil, {1, 2, 3}, {-5, 7, 0, 2, 9, -1}}
	for _, f := range paper.All() {
		a := analyze(t, f.Source)
		c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
		static, err := a.Agrawal(c)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, in := range inputs {
			dyn, err := Slice(a, c, Options{Input: in})
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			for _, id := range dyn.StatementNodes() {
				if !static.Has(id) && !a.CFG.Nodes[id].Kind.IsJump() {
					t.Errorf("%s input %v: dynamic node %v outside static slice",
						f.Name, in, a.CFG.Nodes[id])
				}
			}
		}
	}
}

// TestDynamicReproducesTracedRun: the materialized dynamic slice,
// run on the traced input, produces the original observation
// sequence — the defining property of a dynamic slice.
func TestDynamicReproducesTracedRun(t *testing.T) {
	inputs := [][]int64{nil, {1, 2, 3}, {-5, 7, 0, 2, 9, -1}, {8, 8, -8, 8}}
	for _, f := range paper.All() {
		a := analyze(t, f.Source)
		c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
		for _, in := range inputs {
			dyn, err := Slice(a, c, Options{Input: in})
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			want, err := interp.Observe(a.Prog, in, c.Var, c.Line)
			if err != nil {
				t.Fatal(err)
			}
			got, err := interp.Observe(dyn.Materialize(), in, c.Var, c.Line)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s input %v: dynamic slice observes %v, original %v\n%s",
					f.Name, in, got, want, dyn.Format())
			}
		}
	}
}

// TestDynamicPropertyOverGeneratedPrograms repeats both properties
// (subset-of-static, reproduces-traced-run) over the random corpora.
func TestDynamicPropertyOverGeneratedPrograms(t *testing.T) {
	inputs := [][]int64{nil, {3, -4, 0, 5}}
	for name, gen := range map[string]func(progen.Config) *lang.Program{
		"structured":   progen.Structured,
		"unstructured": progen.Unstructured,
	} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				p := gen(progen.Config{Seed: seed, Stmts: 30})
				a, err := core.Analyze(p)
				if err != nil {
					t.Fatal(err)
				}
				crits := progen.WriteCriteria(p)
				if len(crits) > 2 {
					crits = crits[len(crits)-2:]
				}
				for _, wc := range crits {
					c := core.Criterion{Var: wc.Var, Line: wc.Line}
					static, err := a.Agrawal(c)
					if err != nil {
						t.Fatal(err)
					}
					for _, in := range inputs {
						dyn, err := Slice(a, c, Options{Input: in})
						if err != nil {
							t.Fatalf("seed %d %v: %v", seed, c, err)
						}
						for _, id := range dyn.StatementNodes() {
							if !static.Has(id) && !a.CFG.Nodes[id].Kind.IsJump() {
								t.Errorf("seed %d %v input %v: dynamic node %v outside static slice",
									seed, c, in, a.CFG.Nodes[id])
							}
						}
						want, err := interp.Observe(p, in, c.Var, c.Line)
						if err != nil {
							t.Fatal(err)
						}
						got, err := interp.Observe(dyn.Materialize(), in, c.Var, c.Line)
						if err != nil {
							t.Fatalf("seed %d %v input %v: %v\n%s", seed, c, in, err, dyn.Format())
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d %v input %v: dynamic observes %v, original %v",
								seed, c, in, got, want)
						}
					}
				}
			}
		})
	}
}

// TestDynamicJumpRepairFig3: on the goto program, the dynamic slice
// needs the same jump statements the static algorithm finds when the
// run exercises the relevant paths.
func TestDynamicJumpRepairFig3(t *testing.T) {
	f := paper.Fig3()
	a := analyze(t, f.Source)
	c := core.Criterion{Var: "positives", Line: 15}
	dyn, err := Slice(a, c, Options{Input: []int64{2, -3}})
	if err != nil {
		t.Fatal(err)
	}
	lines := map[int]bool{}
	for _, l := range dyn.Lines() {
		lines[l] = true
	}
	// Both branch outcomes occurred, so the slice needs the loop's
	// jump structure: goto L13 (line 7) and goto L3 (line 13).
	for _, want := range []int{7, 13} {
		if !lines[want] {
			t.Errorf("dynamic slice %v missing jump line %d", dyn.Lines(), want)
		}
	}
}

// TestOccurrencesAndLastOnly: LastOccurrenceOnly slices a single
// execution of the criterion statement.
func TestOccurrencesAndLastOnly(t *testing.T) {
	a := analyze(t, `s = 0;
i = 0;
while (i < 3) {
read(x);
s = s + x;
write(s);
i = i + 1;
}`)
	c := core.Criterion{Var: "s", Line: 6}
	in := []int64{10, 20, 30}
	all, err := Slice(a, c, Options{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	last, err := Slice(a, c, Options{Input: in, LastOccurrenceOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Slicing only the last occurrence can never need more statements.
	if len(last.Lines()) > len(all.Lines()) {
		t.Errorf("last-occurrence slice %v larger than all-occurrence %v",
			last.Lines(), all.Lines())
	}
}

// TestDynamicCriterionNeverExecuted: an input that skips the
// criterion line still yields a runnable (and behaviour-preserving)
// slice.
func TestDynamicCriterionNeverExecuted(t *testing.T) {
	a := analyze(t, `read(x);
if (x > 0) return x;
y = 1;
write(y);`)
	c := core.Criterion{Var: "y", Line: 4}
	in := []int64{5} // returns early; write never runs
	dyn, err := Slice(a, c, Options{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Observe(a.Prog, in, "y", 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.Observe(dyn.Materialize(), in, "y", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slice observes %v, original %v (both should be empty)", got, want)
	}
}

// TestDynamicDiffersAcrossInputs: the same criterion can yield
// different dynamic slices for different inputs — the whole point.
func TestDynamicDiffersAcrossInputs(t *testing.T) {
	f := paper.Fig1()
	a := analyze(t, f.Source)
	c := core.Criterion{Var: "sum", Line: 11}
	neg, err := Slice(a, c, Options{Input: []int64{-1, -2}})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := Slice(a, c, Options{Input: []int64{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(neg.Lines(), pos.Lines()) {
		t.Errorf("expected different slices: negative-input %v, positive-input %v",
			neg.Lines(), pos.Lines())
	}
}
