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
// registry and one span-teed tracer, and checks that each phase.*
// name carries the same total nanoseconds, and the same number of
// spans, in the metrics histogram, the request's SpanLog and the
// flight recorder: one span per phase feeds all three sinks.
func TestObserverSinksAgree(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(1 << 14)
	spans := &obs.SpanLog{}
	tr := obs.NewTracer(fr).ForRequest(1).WithSpans(spans)

	f := paper.Fig5()
	c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
	a, err := core.AnalyzeObservedContext(ctx, f.Parse(), reg, tr)
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
	if _, _, err := core.ReanalyzeProgram(ctx, a, f.Parse(), reg, tr); err != nil {
		t.Fatal(err)
	}

	procs := progen.MultiProc(progen.Config{Seed: 4, Stmts: 20, Procs: 3})
	wcs := progen.MainWriteCriteria(procs)
	pa, err := core.AnalyzeObservedContext(ctx, procs, reg, tr)
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

	type totals struct{ hist, log, flight, n, logN, flightN int64 }
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
	if fr.Dropped() != 0 {
		t.Fatalf("flight recorder dropped %d events; enlarge the ring", fr.Dropped())
	}
	for _, e := range fr.Events() {
		if e.Kind == obs.KindSpan {
			at(e.Name).flight += e.Dur
			at(e.Name).flightN++
		}
	}
	for _, want := range []string{"phase.analyze", "phase.analyze.cfg", "phase.analyze.worklists",
		"phase.analyze.condense", "phase.analyze.sdg", "phase.sdg.summaries", "phase.reanalyze"} {
		if byName[want] == nil || byName[want].n == 0 {
			t.Errorf("no %s span recorded", want)
		}
	}
	for name, s := range byName {
		if s.hist != s.log || s.hist != s.flight {
			t.Errorf("%s: histogram sum %d, SpanLog %d, flight recorder %d ns; want all equal",
				name, s.hist, s.log, s.flight)
		}
		if s.n != s.logN || s.n != s.flightN {
			t.Errorf("%s: histogram count %d, SpanLog %d, flight recorder %d spans; want all equal",
				name, s.n, s.logN, s.flightN)
		}
	}
}

// TestCanceledAnalyzeClosesTotalSpan analyzes Figure 5 under an
// already-canceled context: the analysis stops at its first phase
// boundary, and the phase.analyze total span it opened must still be
// closed exactly once in every sink — the metrics histogram, the
// flight recorder and the request's SpanLog.
func TestCanceledAnalyzeClosesTotalSpan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(1 << 10)
	spans := &obs.SpanLog{}
	tr := obs.NewTracer(fr).ForRequest(1).WithSpans(spans)
	if _, err := core.AnalyzeObservedContext(ctx, paper.Fig5().Parse(), reg, tr); err == nil {
		t.Fatal("analysis under a canceled context succeeded")
	}
	const name = "phase.analyze"
	var hist, log, flight int64
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
	for _, e := range fr.Events() {
		if e.Kind == obs.KindSpan && e.Name == name {
			flight++
		}
	}
	if hist != 1 || log != 1 || flight != 1 {
		t.Errorf("%s spans: histogram %d, SpanLog %d, flight recorder %d; want 1 each", name, hist, log, flight)
	}
}

// TestRebindCacheEventsPerView checks that closure-cache events on a
// condensation shared by several views carry the request of the view
// whose lookup caused them — not the request of whichever view built
// the condensation, nor that of the request whose re-analysis patched
// it.
func TestRebindCacheEventsPerView(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(1 << 14)
	root := obs.NewTracer(fr)

	p := progen.Structured(progen.Config{Seed: 3, Stmts: 40})
	var crits []core.Criterion
	for _, wc := range progen.WriteCriteria(p) {
		crits = append(crits, core.Criterion{Var: wc.Var, Line: wc.Line})
	}
	base, err := core.AnalyzeObservedContext(ctx, p, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// cacheEvents slices through a view traced as req and returns the
	// closure-cache events the call published.
	cacheEvents := func(a *core.Analysis, req uint64) []obs.Event {
		t.Helper()
		mark := fr.Written()
		if _, err := a.Rebind(ctx, reg, root.ForRequest(req)).SliceAll(crits); err != nil {
			t.Fatal(err)
		}
		var out []obs.Event
		for _, e := range fr.Events() {
			if e.Seq >= mark && (e.Kind == obs.KindCacheHit || e.Kind == obs.KindCacheBuild) {
				out = append(out, e)
			}
		}
		if len(out) == 0 {
			t.Fatalf("request %d published no cache events", req)
		}
		return out
	}
	check := func(evs []obs.Event, req uint64) {
		t.Helper()
		for _, e := range evs {
			if e.Req != req {
				t.Errorf("%s event on component %d carries req %d, want %d", e.Kind, e.Node, e.Req, req)
			}
		}
	}
	check(cacheEvents(base, 1), 1)
	check(cacheEvents(base, 2), 2)

	// An identical program re-analyzes on the patched tier, carrying
	// the condensation over; its later lookups belong to their own
	// requests, not to the re-analysing one.
	next, stats, err := core.ReanalyzeProgram(ctx, base, progen.Structured(progen.Config{Seed: 3, Stmts: 40}), reg, root.ForRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CondensationPatched {
		t.Fatalf("re-analysis did not patch the condensation: %+v", stats)
	}
	check(cacheEvents(next, 4), 4)
}

// TestNilSinksAreDisabled checks that a nil registry and a nil tracer
// are valid, disabled sinks for every core entry point that accepts
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
