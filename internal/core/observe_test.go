package core_test

import (
	"context"
	"strings"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// TestObserverSinksAgree runs every span-producing entry point — cold
// analysis with and without procedures, the lazy batch condensation,
// the summary worklist and incremental re-analysis — under one
// registry and one SpanLog, and checks that each phase.* name carries
// the same total nanoseconds, and the same number of spans, in the
// metrics histogram and the request's SpanLog: one span per phase
// feeds both sinks.
func TestObserverSinksAgree(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	spans := &obs.SpanLog{}

	f := paper.Fig5()
	c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
	a, err := core.AnalyzeObservedContext(ctx, f.Parse(), reg, spans)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SliceAll([]core.Criterion{c}); err != nil {
		t.Fatal(err)
	}
	ps, err := a.ProgramSet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SliceInterproc(c); err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.ReanalyzeProgram(ctx, a, f.Parse(), reg, spans); err != nil {
		t.Fatal(err)
	}

	procs := progen.MultiProc(progen.Config{Seed: 4, Stmts: 20, Procs: 3})
	wcs := progen.MainWriteCriteria(procs)
	pa, err := core.AnalyzeObservedContext(ctx, procs, reg, spans)
	if err != nil {
		t.Fatal(err)
	}
	pps, err := pa.ProgramSet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pps.SliceInterproc(core.Criterion{Var: wcs[0].Var, Line: wcs[0].Line}); err != nil {
		t.Fatal(err)
	}

	type totals struct{ hist, log, n, logN int64 }
	byName := map[string]*totals{}
	at := func(name string) *totals {
		if byName[name] == nil {
			byName[name] = &totals{}
		}
		return byName[name]
	}
	for _, h := range reg.Snapshot().Histograms {
		if strings.HasPrefix(h.Name, "phase.") {
			at(h.Name).hist, at(h.Name).n = h.Sum, h.Count
		}
	}
	for _, p := range spans.Spans() {
		at(p.Name).log += p.NS
		at(p.Name).logN++
	}
	for _, want := range []string{"phase.analyze", "phase.analyze.cfg", "phase.analyze.worklists",
		"phase.analyze.condense", "phase.analyze.sdg", "phase.sdg.summaries", "phase.reanalyze"} {
		if byName[want] == nil || byName[want].n == 0 {
			t.Errorf("no %s span recorded", want)
		}
	}
	for name, s := range byName {
		if s.hist != s.log {
			t.Errorf("%s: histogram sum %d, SpanLog %d ns; want equal", name, s.hist, s.log)
		}
		if s.n != s.logN {
			t.Errorf("%s: histogram count %d, SpanLog %d spans; want equal", name, s.n, s.logN)
		}
	}
}

// TestCanceledAnalyzeClosesTotalSpan analyzes Figure 5 under an
// already-canceled context: the analysis stops at its first phase
// boundary, and the phase.analyze total span it opened must still be
// closed exactly once in both sinks — the metrics histogram and the
// request's SpanLog.
func TestCanceledAnalyzeClosesTotalSpan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.NewRegistry()
	spans := &obs.SpanLog{}
	if _, err := core.AnalyzeObservedContext(ctx, paper.Fig5().Parse(), reg, spans); err == nil {
		t.Fatal("analysis under a canceled context succeeded")
	}
	const name = "phase.analyze"
	var hist, log int64
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == name {
			hist = h.Count
		}
	}
	for _, p := range spans.Spans() {
		if p.Name == name {
			log++
		}
	}
	if hist != 1 || log != 1 {
		t.Errorf("%s spans: histogram %d, SpanLog %d; want 1 each", name, hist, log)
	}
}

// TestNilSinksAreDisabled checks that a nil registry and a nil span
// log are valid, disabled sinks for every core entry point that accepts
// them.
func TestNilSinksAreDisabled(t *testing.T) {
	ctx := context.Background()
	f := paper.Fig5()
	c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
	var reg *obs.Registry
	a, err := core.AnalyzeObservedContext(ctx, f.Parse(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Agrawal(c)
	if err != nil {
		t.Fatal(err)
	}
	v := a.Rebind(ctx, reg, nil)
	for _, s := range sliceAllOrFail(t, v, c) {
		if !s.Nodes.Equal(want.Nodes) {
			t.Errorf("nil-sink view slice %v, want %v", s.Lines(), want.Lines())
		}
	}
	next, _, err := core.ReanalyzeProgram(ctx, v, f.Parse(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sliceAllOrFail(t, next, c) {
		if !s.Nodes.Equal(want.Nodes) {
			t.Errorf("nil-sink re-analysis slice %v, want %v", s.Lines(), want.Lines())
		}
	}
	procs, err := lang.Parse("proc inc(x) { x = x + 1; }\nread(a);\ncall inc(a);\nwrite(a);\n")
	if err != nil {
		t.Fatal(err)
	}
	pa, err := core.AnalyzeObservedContext(ctx, procs, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pa.Rebind(ctx, reg, nil).ProgramSet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SliceInterproc(core.Criterion{Var: "a", Line: 4}); err != nil {
		t.Fatal(err)
	}
}

func sliceAllOrFail(t *testing.T, a *core.Analysis, c core.Criterion) []*core.Slice {
	t.Helper()
	out, err := a.SliceAll([]core.Criterion{c})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEachEntryPointRecordsOneSlice pins the slice accounting of the
// five single-criterion entry points: one call adds exactly 1 to
// core.slices and one observation, the returned slice's size, to
// core.slice_nodes. An algorithm built on the conventional slice
// computes that slice as its base, not as a slice of its own.
func TestEachEntryPointRecordsOneSlice(t *testing.T) {
	f := paper.Fig14() // structured, so Figures 12 and 13 apply
	c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
	for _, tc := range []struct {
		name string
		run  func(*core.Analysis, core.Criterion) (*core.Slice, error)
	}{
		{"conventional", (*core.Analysis).Conventional},
		{"agrawal", (*core.Analysis).Agrawal},
		{"agrawal-lst", (*core.Analysis).AgrawalLST},
		{"agrawal-structured", (*core.Analysis).AgrawalStructured},
		{"agrawal-conservative", (*core.Analysis).AgrawalConservative},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			a, err := core.AnalyzeObservedContext(context.Background(), f.Parse(), reg, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := tc.run(a, c)
			if err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter("core.slices").Value(); got != 1 {
				t.Errorf("core.slices = %d after one call, want 1", got)
			}
			h := reg.Histogram("core.slice_nodes", obs.UnitCount)
			if h.Count() != 1 || h.Sum() != int64(s.Nodes.Len()) {
				t.Errorf("core.slice_nodes: %d observations summing to %d, want 1 of %d", h.Count(), h.Sum(), s.Nodes.Len())
			}
		})
	}
}
