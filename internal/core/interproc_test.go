package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

func mustSet(t *testing.T, src string) *ProgramSet {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ps, err := AnalyzeProgramSet(prog)
	if err != nil {
		t.Fatalf("analyze set: %v", err)
	}
	return ps
}

const twoProcSrc = `proc add(s, x) {
    s = s + x;
}
read(a);
read(b);
sum = 0;
cnt = 0;
call add(sum, a);
call add(cnt, b);
write(sum);
write(cnt);
`

func TestSliceInterprocCrossesCallBoundary(t *testing.T) {
	ps := mustSet(t, twoProcSrc)
	s, err := ps.SliceInterproc(Criterion{Var: "sum", Line: 10})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	lines := s.Lines()
	want := []int{2, 4, 6, 8, 10}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v, want %v", lines, want)
	}
	for i, l := range want {
		if lines[i] != l {
			t.Fatalf("lines = %v, want %v", lines, want)
		}
	}
	// The materialized slice must keep the proc declaration and drop
	// the cnt call chain.
	text := s.Format()
	if !strings.Contains(text, "proc add(s, x)") {
		t.Errorf("materialized slice lost the proc declaration:\n%s", text)
	}
	if strings.Contains(text, "cnt") {
		t.Errorf("materialized slice kept the unrelated cnt chain:\n%s", text)
	}
}

func TestSliceInterprocIrrelevantCalleeDropped(t *testing.T) {
	src := `proc double(v) {
    v = v * 2;
}
proc zero(v) {
    v = 0;
}
read(a);
read(b);
call double(a);
call zero(b);
write(a);
`
	ps := mustSet(t, src)
	s, err := ps.SliceInterproc(Criterion{Var: "a", Line: 10})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	text := s.Format()
	if !strings.Contains(text, "proc double") {
		t.Errorf("slice lost relevant proc double:\n%s", text)
	}
	if strings.Contains(text, "proc zero") {
		t.Errorf("slice kept irrelevant proc zero:\n%s", text)
	}
	if strings.Contains(text, "read(b)") {
		t.Errorf("slice kept irrelevant read(b):\n%s", text)
	}
}

func TestSliceInterprocJumpRepairInCallee(t *testing.T) {
	// The callee is the paper's Figure 10-a program (the unstructured
	// example needing two productive Figure 7 traversals), with its
	// writes replaced by out-parameters. The per-procedure repair must
	// admit the same jumps the intraprocedural algorithm admits.
	src := `proc weave(x, y, z) {
    if (c1()) {
        goto L6;
L3:     y = f1();
        goto L8;
    }
    z = g1();
L6: x = h1();
    goto L3;
L8: ;
}
call weave(a, b, c);
write(b);
`
	ps := mustSet(t, src)
	s, err := ps.SliceInterproc(Criterion{Var: "b", Line: 13})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	if s.JumpsAdded == 0 {
		t.Fatalf("expected the callee's gotos to be admitted by jump repair; slice:\n%s", s.Format())
	}
	text := s.Format()
	for _, want := range []string{"goto L6;", "goto L3;", "goto L8;"} {
		if !strings.Contains(text, want) {
			t.Errorf("slice lost %q:\n%s", want, text)
		}
	}
}

func TestSliceInterprocSingleProcMatchesAgrawal(t *testing.T) {
	// Figure 5's program (single procedure): the SDG slice must be
	// byte-identical to the intraprocedural Agrawal slice.
	src := `read(n);
i = 1;
sum = 0;
prod = 1;
while (i <= n) {
    if (i % 2 == 0) {
        sum = sum + i;
    }
    prod = prod * i;
    i = i + 1;
    if (prod > 100) {
        break;
    }
}
write(sum);
write(prod);
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	ps := mustSet(t, src)
	for _, c := range []Criterion{{Var: "prod", Line: 16}, {Var: "sum", Line: 15}, {Var: "i", Line: 10}} {
		want, err := a.Agrawal(c)
		if err != nil {
			t.Fatalf("agrawal %v: %v", c, err)
		}
		got, err := ps.SliceInterproc(c)
		if err != nil {
			t.Fatalf("sdg %v: %v", c, err)
		}
		if got.Format() != want.Format() {
			t.Errorf("criterion %v: sdg slice differs from agrawal\nsdg:\n%s\nagrawal:\n%s", c, got.Format(), want.Format())
		}
	}
}

func TestSliceInterprocPaperFiguresMatchAgrawal(t *testing.T) {
	// A procedure-free program is the one-unit case of its program
	// set: on every paper figure, and on every write criterion of the
	// 240-program corpus, the set accessor's SDG slice must be
	// byte-identical to the Figure 7 slice.
	for _, f := range paper.All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			requireSDGMatchesAgrawal(t, f.Name, analyzeFig(t, f), []Criterion{crit(f)})
		})
	}
	batchCases(t, 120, func(t *testing.T, corpus string, seed int64, a *Analysis, crits []Criterion) {
		requireSDGMatchesAgrawal(t, fmt.Sprintf("%s seed %d", corpus, seed), a, crits)
	})
}

func requireSDGMatchesAgrawal(t *testing.T, label string, a *Analysis, crits []Criterion) {
	t.Helper()
	ps, err := a.ProgramSet()
	if err != nil {
		t.Fatalf("%s: program set: %v", label, err)
	}
	for _, c := range crits {
		want, err := a.Agrawal(c)
		if err != nil {
			t.Fatalf("%s %s: agrawal: %v", label, c, err)
		}
		got, err := ps.SliceInterproc(c)
		if err != nil {
			t.Fatalf("%s %s: sdg: %v", label, c, err)
		}
		if got.Format() != want.Format() {
			t.Errorf("%s %s: sdg slice differs from agrawal\nsdg:\n%s\nagrawal:\n%s", label, c, got.Format(), want.Format())
		}
		if g, w := got.JumpsAdded, len(want.JumpsAdded); g != w {
			t.Errorf("%s %s: sdg admitted %d jumps, agrawal %d", label, c, g, w)
		}
	}
}

// TestAnalyzeProcsRefusesIntraprocedural pins the one gate: an
// analysis of a program with procedures serves the sdg slicer, and
// every intraprocedural algorithm refuses it, naming the sdg slicer.
func TestAnalyzeProcsRefusesIntraprocedural(t *testing.T) {
	a, err := Analyze(lang.MustParse(twoProcSrc))
	if err != nil {
		t.Fatal(err)
	}
	c := Criterion{Var: "sum", Line: 10}
	for name, run := range map[string]func(Criterion) (*Slice, error){
		"agrawal":      a.Agrawal,
		"agrawal-lst":  a.AgrawalLST,
		"structured":   a.AgrawalStructured,
		"conservative": a.AgrawalConservative,
		"conventional": a.Conventional,
	} {
		if _, err := run(c); err == nil || !strings.Contains(err.Error(), "algo=sdg") {
			t.Errorf("%s on a program with procedures: err = %v, want a refusal naming algo=sdg", name, err)
		}
	}
	ps, err := a.ProgramSet()
	if err != nil {
		t.Fatal(err)
	}
	s, err := ps.SliceInterproc(c)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(s.Lines()) != "[2 4 6 8 10]" {
		t.Errorf("sdg lines = %v, want [2 4 6 8 10]", s.Lines())
	}
	if main := ps.MainUnit().Sub.Footprint(); a.Footprint() <= main {
		t.Errorf("footprint %d does not exceed the main unit's %d", a.Footprint(), main)
	}
}

// TestSummariesResumeAfterCancel: a view whose context cancels the
// summary worklist fails its slice, and a later view under a live
// context completes the worklist and slices exactly like a set that
// never saw a cancellation.
func TestSummariesResumeAfterCancel(t *testing.T) {
	p := progen.MultiProc(progen.Config{Seed: 3, Stmts: 60, Procs: 6})
	wcs := progen.MainWriteCriteria(p)
	if len(wcs) == 0 {
		t.Fatal("no main write criteria")
	}
	c := Criterion{Var: wcs[0].Var, Line: wcs[0].Line}
	ref, err := AnalyzeProgramSet(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SliceInterproc(c)
	if err != nil {
		t.Fatal(err)
	}

	// The worklist checks the context once per round: a budget of two
	// checks cancels it at the start of its third round.
	a := MustAnalyze(p)
	ctx := newCountdownCtx(2)
	dead, err := a.Rebind(ctx, nil, nil).ProgramSet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.SliceInterproc(c); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled view: err = %v, want context.Canceled", err)
	}
	if a.set.ps.SDG.SummariesComputed() || a.set.ps.SDG.Stats().SummaryEdges == 0 {
		t.Fatalf("the cancellation did not land midway through the summary worklist (%+v)", a.set.ps.SDG.Stats())
	}
	live, err := a.Rebind(context.Background(), nil, nil).ProgramSet()
	if err != nil {
		t.Fatal(err)
	}
	got, err := live.SliceInterproc(c)
	if err != nil {
		t.Fatalf("live view after a canceled one: %v", err)
	}
	if got.Format() != want.Format() || fmt.Sprint(got.V2) != fmt.Sprint(want.V2) {
		t.Errorf("slice after a canceled worklist differs:\n%s\nwant:\n%s", got.Format(), want.Format())
	}
	if g, w := live.SDG.Stats().SummaryEdges, ref.SDG.Stats().SummaryEdges; g != w {
		t.Errorf("summary edges %d after resume, %d without cancellation", g, w)
	}
}

func TestSliceInterprocExplainNamesParamEdges(t *testing.T) {
	ps := mustSet(t, twoProcSrc)
	s, err := ps.SliceInterproc(Criterion{Var: "sum", Line: 10})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	var all []string
	for _, rs := range s.EdgeReasons() {
		all = append(all, rs...)
	}
	joined := strings.Join(all, "\n")
	for _, kind := range []string{"param-in", "param-out", "summary", "call"} {
		if !strings.Contains(joined, kind) {
			t.Errorf("edge reasons missing %q:\n%s", kind, joined)
		}
	}
}

func TestSliceInterprocWarmSummariesReused(t *testing.T) {
	ps := mustSet(t, twoProcSrc)
	if ps.SDG.SummariesComputed() {
		t.Fatal("summaries computed before first slice")
	}
	if _, err := ps.SliceInterproc(Criterion{Var: "sum", Line: 10}); err != nil {
		t.Fatalf("slice: %v", err)
	}
	if !ps.SDG.SummariesComputed() {
		t.Fatal("summaries not computed by first slice")
	}
	// Second slice of a different criterion reuses them (observable
	// only as "still computed and no error"; the perf gate measures
	// the actual speedup).
	if _, err := ps.SliceInterproc(Criterion{Var: "cnt", Line: 11}); err != nil {
		t.Fatalf("warm slice: %v", err)
	}
}
