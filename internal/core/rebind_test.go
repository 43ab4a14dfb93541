package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// TestRebindSlicesIdentical asserts a rebound view computes exactly
// the slices of the original Analysis, for every algorithm.
func TestRebindSlicesIdentical(t *testing.T) {
	f := paper.Fig5()
	a := core.MustAnalyze(f.Parse())
	v := a.Rebind(context.Background(), obs.NewRegistry(), nil)
	c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
	algos := map[string]func(*core.Analysis) (*core.Slice, error){
		"agrawal":      func(a *core.Analysis) (*core.Slice, error) { return a.Agrawal(c) },
		"structured":   func(a *core.Analysis) (*core.Slice, error) { return a.AgrawalStructured(c) },
		"conservative": func(a *core.Analysis) (*core.Slice, error) { return a.AgrawalConservative(c) },
		"conventional": func(a *core.Analysis) (*core.Slice, error) { return a.Conventional(c) },
	}
	for name, run := range algos {
		want, err1 := run(a)
		got, err2 := run(v)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", name, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !want.Nodes.Equal(got.Nodes) {
			t.Errorf("%s: rebound view slice differs: %v vs %v", name, want.Lines(), got.Lines())
		}
	}
}

// TestRebindSharesBatchCondensation asserts the expensive batch
// condensation is built once and shared across views: the
// phase.analyze.condense span fires exactly once no matter which view
// batch-slices first.
func TestRebindSharesBatchCondensation(t *testing.T) {
	reg := obs.NewRegistry()
	p := progen.Structured(progen.Config{Seed: 3, Stmts: 40})
	a, err := core.AnalyzeObservedContext(context.Background(), p, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wcs := progen.WriteCriteria(p)
	crits := []core.Criterion{{Var: wcs[len(wcs)-1].Var, Line: wcs[len(wcs)-1].Line}}

	v1 := a.Rebind(context.Background(), reg, nil)
	if _, err := v1.SliceAll(crits); err != nil {
		t.Fatal(err)
	}
	v2 := a.Rebind(context.Background(), reg, nil)
	if _, err := v2.SliceAll(crits); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SliceAll(crits); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, h := range snap.Histograms {
		if h.Name == "phase.analyze.condense" && h.Count != 1 {
			t.Errorf("condensation built %d times across views, want 1", h.Count)
		}
	}
}

// TestRebindCancellationIsPerView asserts a canceled view fails its
// calls while the base Analysis and sibling views keep working — the
// property the cache's shared-analysis model depends on.
func TestRebindCancellationIsPerView(t *testing.T) {
	f := paper.Fig5()
	a := core.MustAnalyze(f.Parse())
	c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}

	ctx, cancel := context.WithCancel(context.Background())
	dead := a.Rebind(ctx, nil, nil)
	cancel()
	if _, err := dead.Agrawal(c); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled view Agrawal err = %v, want context.Canceled", err)
	}
	if _, err := a.Agrawal(c); err != nil {
		t.Errorf("base Analysis affected by view cancellation: %v", err)
	}
	live := a.Rebind(context.Background(), nil, nil)
	if _, err := live.Agrawal(c); err != nil {
		t.Errorf("sibling view affected by view cancellation: %v", err)
	}
	// Rebinding with a nil context detaches cancellation entirely.
	detached := dead.Rebind(nil, nil, nil)
	if _, err := detached.Agrawal(c); err != nil {
		t.Errorf("detached view still canceled: %v", err)
	}
}

// TestFootprintDeterministic asserts the cache cost model: equal
// programs weigh equal bytes, and the estimate is positive and grows
// with program size.
func TestFootprintDeterministic(t *testing.T) {
	small := progen.Structured(progen.Config{Seed: 1, Stmts: 20})
	a1 := core.MustAnalyze(small)
	a2 := core.MustAnalyze(progen.Structured(progen.Config{Seed: 1, Stmts: 20}))
	if a1.Footprint() != a2.Footprint() {
		t.Errorf("same program, different footprints: %d vs %d", a1.Footprint(), a2.Footprint())
	}
	if a1.Footprint() <= 0 {
		t.Errorf("footprint = %d, want positive", a1.Footprint())
	}
	big := core.MustAnalyze(progen.Structured(progen.Config{Seed: 1, Stmts: 200}))
	if big.Footprint() <= a1.Footprint() {
		t.Errorf("200-stmt footprint %d not larger than 20-stmt footprint %d", big.Footprint(), a1.Footprint())
	}
	if v := a1.Rebind(nil, nil, nil); v.Footprint() != a1.Footprint() {
		t.Errorf("rebound view footprint %d differs from base %d", v.Footprint(), a1.Footprint())
	}
}

// TestRebindViewsShareProgramSet slices one analysis's program set
// from many views at once, before any view has built the one-unit set
// or run the summary worklist: every view must get the reference
// slice, and the shared state must be built race-free (run with
// -race).
func TestRebindViewsShareProgramSet(t *testing.T) {
	for _, p := range []*lang.Program{
		progen.MultiProc(progen.Config{Seed: 4, Stmts: 20, Procs: 4}),
		progen.Structured(progen.Config{Seed: 4, Stmts: 40}),
	} {
		wcs := progen.MainWriteCriteria(p)
		c := core.Criterion{Var: wcs[len(wcs)-1].Var, Line: wcs[len(wcs)-1].Line}
		ref, err := core.AnalyzeProgramSet(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.SliceInterproc(c)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		a := core.MustAnalyze(p).Rebind(nil, reg, nil)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ps, err := a.Rebind(context.Background(), reg, nil).ProgramSet()
				if err != nil {
					t.Error(err)
					return
				}
				got, err := ps.SliceInterproc(c)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Format() != want.Format() {
					t.Errorf("view slice differs:\n%s\nwant:\n%s", got.Format(), want.Format())
				}
			}()
		}
		wg.Wait()
		if got, want := reg.Counter("sdg.summary_edges").Value(), int64(ref.SDG.Stats().SummaryEdges); got != want {
			t.Errorf("sdg.summary_edges = %d across views, want %d (one worklist run)", got, want)
		}
	}
}
