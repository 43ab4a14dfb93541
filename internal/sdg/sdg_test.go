package sdg_test

import (
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
	"jumpslice/internal/sdg"
)

// nestedSrc calls through two levels, so summary edges must
// propagate from inc's call sites up into twice's.
const nestedSrc = `proc inc(x) {
    x = x + 1;
}
proc twice(y, z) {
    call inc(y);
    call inc(y);
    z = y;
}
read(a);
b = 0;
call twice(a, b);
write(a);
write(b);
`

// buildSet analyzes a program and returns its program set with the
// summary edges not yet computed.
func buildSet(t *testing.T, p *lang.Program) *core.ProgramSet {
	t.Helper()
	ps, err := core.AnalyzeProgramSet(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if ps.SDG.SummariesComputed() {
		t.Fatal("summary edges computed before the first slice")
	}
	return ps
}

// summaryEdges lists the graph's summary edges, rendered and sorted.
func summaryEdges(g *sdg.Graph) []string {
	var out []string
	for v := 0; v < g.NumVerts(); v++ {
		for _, d := range g.Deps(v) {
			if d.Kind == sdg.EdgeSummary {
				out = append(out, g.VertString(v)+" -> "+g.VertString(d.To))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestComputeSummariesProcsTwo pins the fixpoint on testdata's
// two-procedure program: add(s, x) computes s from s and x and leaves
// x alone, so each of its two call sites gets three summary edges.
// A second call is a no-op.
func TestComputeSummariesProcsTwo(t *testing.T) {
	src, err := os.ReadFile("../../testdata/procs-two.mc")
	if err != nil {
		t.Fatal(err)
	}
	g := buildSet(t, lang.MustParse(string(src))).SDG
	edges, rounds, err := g.ComputeSummaries(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"main.actual-out(cnt)@9 -> main.actual-in#0@9",
		"main.actual-out(cnt)@9 -> main.actual-in#1@9",
		"main.actual-out(sum)@8 -> main.actual-in#0@8",
		"main.actual-out(sum)@8 -> main.actual-in#1@8",
		"main.actual-out(a)@8 -> main.actual-in#1@8",
		"main.actual-out(b)@9 -> main.actual-in#1@9",
	}
	sort.Strings(want)
	got := summaryEdges(g)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summary edges:\n%v\nwant:\n%v", got, want)
	}
	if edges != len(want) || rounds != 1 {
		t.Errorf("ComputeSummaries = (%d edges, %d rounds), want (%d, 1)", edges, rounds, len(want))
	}
	stats := g.Stats()
	e2, r2, err := g.ComputeSummaries(nil)
	if err != nil || e2 != edges || r2 != rounds {
		t.Errorf("second call = (%d, %d, %v), want (%d, %d, nil)", e2, r2, err, edges, rounds)
	}
	if !reflect.DeepEqual(g.Stats(), stats) || !reflect.DeepEqual(summaryEdges(g), got) {
		t.Error("second call changed the graph")
	}
}

// TestComputeSummariesPropagate: inc's summary edges make twice's
// formal-out y depend on its formal-in y, which the worklist then
// installs at twice's call site in main.
func TestComputeSummariesPropagate(t *testing.T) {
	g := buildSet(t, lang.MustParse(nestedSrc)).SDG
	if _, _, err := g.ComputeSummaries(nil); err != nil {
		t.Fatal(err)
	}
	edges := summaryEdges(g)
	for _, e := range []string{
		"twice.actual-out(y)@5 -> twice.actual-in#0@5",
		"main.actual-out(a)@11 -> main.actual-in#0@11",
		"main.actual-out(b)@11 -> main.actual-in#0@11",
	} {
		if !contains(edges, e) {
			t.Errorf("missing summary edge %s in %v", e, edges)
		}
	}
	if contains(edges, "main.actual-out(b)@11 -> main.actual-in#1@11") {
		t.Errorf("z is overwritten in twice, yet b depends on its own incoming value: %v", edges)
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestPassDiscipline checks the two HRB passes on every vertex of a
// multi-procedure corpus and of nestedSrc: a pass-one closure never
// descends (it stays in the seed's procedure and its transitive
// callers), and a pass-two closure never ascends (it stays in the
// seed's procedure and its transitive callees).
func TestPassDiscipline(t *testing.T) {
	progs := []*lang.Program{lang.MustParse(nestedSrc)}
	for seed := int64(0); seed < 4; seed++ {
		progs = append(progs, progen.MultiProc(progen.Config{Seed: seed, Stmts: 15, Procs: 3}))
	}
	for i, p := range progs {
		g := buildSet(t, p).SDG
		if _, _, err := g.ComputeSummaries(nil); err != nil {
			t.Fatal(err)
		}
		callers := make([][]int, len(g.Procs))
		callees := make([][]int, len(g.Procs))
		for q := range g.Procs {
			for _, s := range g.Sites(q) {
				callers[q] = append(callers[q], s.Proc)
				callees[s.Proc] = append(callees[s.Proc], q)
			}
		}
		for v := 0; v < g.NumVerts(); v++ {
			pi := g.Vert(v).Proc
			for _, pass := range []struct {
				name    string
				pass    sdg.Pass
				allowed []bool
			}{
				{"pass one", sdg.PassOne, closureOf(pi, callers)},
				{"pass two", sdg.PassTwo, closureOf(pi, callees)},
			} {
				set, err := g.Closure([]int{v}, pass.pass, nil)
				if err != nil {
					t.Fatal(err)
				}
				for w := set.NextSet(0); w >= 0; w = set.NextSet(w + 1) {
					if !pass.allowed[g.Vert(w).Proc] {
						t.Fatalf("program %d: %s from %s reached %s", i, pass.name, g.VertString(v), g.VertString(w))
					}
				}
			}
		}
	}
}

// closureOf marks p and every procedure reachable from it along next.
func closureOf(p int, next [][]int) []bool {
	seen := make([]bool, len(next))
	stack := []int{p}
	seen[p] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range next[q] {
			if !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
	}
	return seen
}

// TestParameterNotLiveThrough is the Entry→Exit regression: the edge
// that roots control dependence is not an executable path, so a
// parameter every path redefines must not flow from formal-in to
// formal-out, while one a path leaves alone must.
func TestParameterNotLiveThrough(t *testing.T) {
	const src = `proc set(s) {
    s = 1;
}
proc maybe(m, c) {
    if (c > 0) m = 1;
}
read(x);
read(y);
call set(x);
call maybe(y, x);
write(x);
write(y);
`
	g := buildSet(t, lang.MustParse(src)).SDG
	if _, _, err := g.ComputeSummaries(nil); err != nil {
		t.Fatal(err)
	}
	flows := func(pi, param int) bool {
		var in, out int
		for v := 0; v < g.NumVerts(); v++ {
			switch vx := g.Vert(v); {
			case vx.Proc == pi && vx.Index == param && vx.Kind == sdg.VertFormalIn:
				in = v
			case vx.Proc == pi && vx.Index == param && vx.Kind == sdg.VertFormalOut:
				out = v
			}
		}
		for _, d := range g.Deps(out) {
			if d.To == in {
				return true
			}
		}
		return false
	}
	// Units are numbered in declaration order: set 0, maybe 1.
	if flows(0, 0) {
		t.Error("set's s is redefined on every path, yet formal-out depends on formal-in")
	}
	if !flows(1, 0) {
		t.Error("maybe's m survives when c <= 0, yet formal-out does not depend on formal-in")
	}
	if contains(summaryEdges(g), "main.actual-out(x)@9 -> main.actual-in#0@9") {
		t.Errorf("summary edge carries x through set: %v", summaryEdges(g))
	}
}

// TestComputeSummariesResumesAfterCancel cancels the worklist at
// every possible check, then re-runs it uncanceled: the edge set must
// equal that of a run that was never canceled.
func TestComputeSummariesResumesAfterCancel(t *testing.T) {
	p := progen.MultiProc(progen.Config{Seed: 2, Stmts: 20, Procs: 5})
	ref := buildSet(t, p).SDG
	if _, _, err := ref.ComputeSummaries(nil); err != nil {
		t.Fatal(err)
	}
	want := summaryEdges(ref)
	stop := errors.New("stop")
	partial := false
	for k := 0; ; k++ {
		g := buildSet(t, p).SDG
		calls := 0
		edges, _, err := g.ComputeSummaries(func() error {
			if calls++; calls > k {
				return stop
			}
			return nil
		})
		if err == nil {
			break
		}
		if !errors.Is(err, stop) || g.SummariesComputed() {
			t.Fatalf("k=%d: err = %v, computed = %v", k, err, g.SummariesComputed())
		}
		partial = partial || (edges > 0 && edges < len(want))
		if _, _, err := g.ComputeSummaries(nil); err != nil {
			t.Fatal(err)
		}
		if got := summaryEdges(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: resumed edges\n%v\nwant\n%v", k, got, want)
		}
		if g.Stats().SummaryEdges != len(want) {
			t.Fatalf("k=%d: resumed count %d, want %d", k, g.Stats().SummaryEdges, len(want))
		}
	}
	if !partial {
		t.Fatal("no cancellation landed midway through the worklist")
	}
}
