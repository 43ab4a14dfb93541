package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// TestSliceStandsProperty walks the randomized-edit corpus of
// TestReanalyzePropertyByteIdentity. Before each edit it serves a
// slice of every algorithm SliceStands answers for, as a session
// would (explained when the served request asked for explain); after
// it, whenever a session would answer the next request from the served
// slice (no explain, and SliceStands), that slice must be a fresh
// slice on the new analysis in every field a response carries.
func TestSliceStandsProperty(t *testing.T) {
	corpora := []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{
		{"structured", progen.Structured},
		{"unstructured", progen.Unstructured},
	}
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	admitted := map[string]int{}
	for _, corpus := range corpora {
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*seeds + seed)))
			src := lang.Format(corpus.gen(progen.Config{Seed: int64(seed), Stmts: 40}), lang.PrintOptions{})
			cur := MustAnalyze(lang.MustParse(src))
			for step := 0; step < 3; step++ {
				newSrc, _ := mutate(rng, src)
				inc, stats, err := reanalyze(cur, newSrc)
				if err != nil {
					t.Fatalf("%s seed %d step %d: %v", corpus.name, seed, step, err)
				}
				for _, c := range writeCriteria(cur.Prog, 3) {
					for _, alg := range incrAlgos {
						for _, explain := range []bool{false, true} {
							served, err := alg.run(cur, c)
							if err != nil {
								continue
							}
							if explain {
								if _, err := served.Explain(); err != nil {
									t.Fatal(err)
								}
							}
							// The next request asks for the same slice without
							// explain; one with explain always re-slices.
							if !SliceStands(cur, inc, stats, served.Algorithm, c, served.Nodes) {
								continue
							}
							admitted[stats.Outcome]++
							ctxt := fmt.Sprintf("%s seed %d step %d (%s) %s(%v) explain=%v\nold:\n%s\nnew:\n%s",
								corpus.name, seed, step, stats.Outcome, alg.name, c, explain, src, newSrc)
							requireSliceStands(t, ctxt, served, inc, alg.run, c)
						}
					}
				}
				src, cur = newSrc, inc
			}
		}
	}
	t.Logf("served slices that stood, by tier: %v", admitted)
	if admitted["full"] != 0 {
		t.Fatalf("a slice stood across a full re-analysis: %v", admitted)
	}
	if min := 10 * seeds; admitted["patched"]+admitted["partial"] < min || admitted["partial"] == 0 {
		t.Fatalf("only %v served slices stood; want at least %d, some partial", admitted, min)
	}
}

// requireSliceStands compares a served slice with a fresh run of its
// algorithm on the re-analysis a.
func requireSliceStands(t *testing.T, ctxt string, served *Slice, a *Analysis, run func(*Analysis, Criterion) (*Slice, error), c Criterion) {
	t.Helper()
	fresh, err := run(a, c)
	if err != nil {
		t.Fatalf("%s: fresh slice: %v", ctxt, err)
	}
	switch {
	case !fresh.Nodes.Equal(served.Nodes):
		t.Fatalf("%s: nodes %v, served %v", ctxt, fresh.Lines(), served.Lines())
	case !slices.Equal(fresh.JumpsAdded, served.JumpsAdded) || !slices.Equal(fresh.JumpRules, served.JumpRules):
		t.Fatalf("%s: jumps %v %v, served %v %v", ctxt, fresh.JumpsAdded, fresh.JumpRules, served.JumpsAdded, served.JumpRules)
	case fresh.Traversals != served.Traversals:
		t.Fatalf("%s: traversals %d, served %d", ctxt, fresh.Traversals, served.Traversals)
	case !reflect.DeepEqual(fresh.Relabeled, served.Relabeled):
		t.Fatalf("%s: relabeled %v, served %v", ctxt, fresh.Relabeled, served.Relabeled)
	case !slices.Equal(fresh.Lines(), served.Lines()):
		t.Fatalf("%s: lines %v, served %v", ctxt, fresh.Lines(), served.Lines())
	case !slices.Equal(fresh.JumpLines(), served.JumpLines()):
		t.Fatalf("%s: jump lines %v, served %v", ctxt, fresh.JumpLines(), served.JumpLines())
	case fresh.Format() != served.Format():
		t.Fatalf("%s: text\n%s\nserved\n%s", ctxt, fresh.Format(), served.Format())
	}
}

// TestSliceStandsComparesSeeds: a criterion line that neither uses nor
// defines its variable slices on the definitions reaching it, which an
// edit outside the slice can change. Both edits below miss the served
// slice and change no row of it, yet change its seeds: on the
// criterion line itself (patched), and by moving a definition of the
// variable (partial).
func TestSliceStandsComparesSeeds(t *testing.T) {
	for _, c := range []struct {
		src, text string
		line      int
		crit      Criterion
		tier      string
	}{
		{"x = 1;\ny = 2;\nz = y;\nwrite(z);\n", "z = x;", 3, Criterion{Var: "x", Line: 3}, "patched"},
		{"x = 1;\ny = 2;\nw = 3;\ny = 5;\nwrite(w + y);\n", "x = 2;", 2, Criterion{Var: "x", Line: 5}, "partial"},
	} {
		prev := MustAnalyze(lang.MustParse(c.src))
		served, err := prev.Agrawal(c.crit)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := incremental.SpliceLine(prev.Prog, c.line, c.text)
		if !ok {
			t.Fatalf("%q: splice refused", c.text)
		}
		a, stats, err := ReanalyzeProgram(context.Background(), prev, p, nil, nil)
		if err != nil || stats.Outcome != c.tier {
			t.Fatalf("%q: err %v, stats %+v, want tier %s", c.text, err, stats, c.tier)
		}
		fresh, err := a.Agrawal(c.crit)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Nodes.Equal(served.Nodes) {
			t.Fatalf("%q: the edit left the slice %v as it was", c.text, fresh.Lines())
		}
		if SliceStands(prev, a, stats, served.Algorithm, c.crit, served.Nodes) {
			t.Errorf("%q: served slice %v stood; fresh slice is %v", c.text, served.Lines(), fresh.Lines())
		}
	}
}

// TestSliceStandsPrintedHeader: a slice prints the header of a compound
// statement holding one of its statements, even when the compound's
// predicate is not in it. Here the goto makes "y = 1" postdominate the
// if, so the conventional slice keeps it without the predicate, and
// editing the condition changes the slice's text but none of its
// nodes.
func TestSliceStandsPrintedHeader(t *testing.T) {
	const src = "read(x);\ny = 0;\nif (x > 5) {\n    L: y = 1;\n} else goto L;\nwrite(y);\n"
	c := Criterion{Var: "y", Line: 6}
	prev := MustAnalyze(lang.MustParse(src))
	served, err := prev.Conventional(c)
	if err != nil {
		t.Fatal(err)
	}
	a, stats, err := reanalyze(prev, strings.Replace(src, "x > 5", "x > 6", 1))
	if err != nil || stats.Outcome != "patched" {
		t.Fatalf("err %v, stats %+v", err, stats)
	}
	fresh, err := a.Conventional(c)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Nodes.Equal(served.Nodes) || fresh.Format() == served.Format() {
		t.Fatalf("want the same nodes printed differently; fresh:\n%s\nserved:\n%s", fresh.Format(), served.Format())
	}
	if SliceStands(prev, a, stats, served.Algorithm, c, served.Nodes) {
		t.Errorf("served slice stood; fresh text:\n%s\nserved text:\n%s", fresh.Format(), served.Format())
	}
}
