package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jumpslice/internal/obs"
	"jumpslice/internal/progen"
)

// countdownCtx is a context whose Err flips to context.Canceled after
// a fixed number of Err calls, letting tests land a cancellation at
// any exact point of the pipeline's check cadence — deterministic
// where a timer or a goroutine calling cancel() would race.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
	done      chan struct{}
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.remaining.Store(n)
	return c
}

// Done returns a non-nil never-closed channel so bindContext arms the
// cancellation checks (a nil Done disables them by design).
func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// calls reports how many Err calls were consumed out of the initial n.
func (c *countdownCtx) calls(n int64) int64 { return n - c.remaining.Load() }

func TestAnalyzeContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := progen.Unstructured(progen.Config{Seed: 3, Stmts: 40})
	if _, err := AnalyzeObservedContext(ctx, p, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeObservedContext on canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestAnalyzeContextExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	p := progen.Unstructured(progen.Config{Seed: 3, Stmts: 40})
	if _, err := AnalyzeObservedContext(ctx, p, nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AnalyzeObservedContext past deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestAnalyzeNilAndBackgroundContextsSucceed pins the fast path: a
// context that can never cancel leaves the pipeline unarmed and fully
// functional.
func TestAnalyzeNilAndBackgroundContextsSucceed(t *testing.T) {
	p := progen.Unstructured(progen.Config{Seed: 3, Stmts: 40})
	for name, ctx := range map[string]context.Context{
		"nil": nil, "background": context.Background(),
	} {
		a, err := AnalyzeObservedContext(ctx, p, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.cancelf != nil {
			t.Errorf("%s: cancellation armed for a context with no Done channel", name)
		}
		crits := criteriaOf(t, a)
		if _, err := a.Agrawal(crits[0]); err != nil {
			t.Errorf("%s: Agrawal: %v", name, err)
		}
	}
}

func criteriaOf(t *testing.T, a *Analysis) []Criterion {
	t.Helper()
	var crits []Criterion
	for _, wc := range progen.WriteCriteria(a.Prog) {
		crits = append(crits, Criterion{Var: wc.Var, Line: wc.Line})
	}
	if len(crits) == 0 {
		t.Fatal("generated program has no write criteria")
	}
	return crits
}

// TestCancelMidSlice lands a cancellation at every point of the
// slicing pipeline's check cadence: it first counts the checks one
// Agrawal slice consumes, then replays the same slice with the
// countdown set to each intermediate value. Every replay must fail
// with an error wrapping context.Canceled (never a panic, never a
// wrong slice), must name the site that noticed, and must count
// exactly one core.cancellations.
func TestCancelMidSlice(t *testing.T) {
	p := progen.Unstructured(progen.Config{Seed: 7, Stmts: 60})

	// Budget Err() generously so analysis and the probe slice both
	// complete; what we count is the slice's own consumption.
	const budget = 1 << 30
	probe := newCountdownCtx(budget)
	a, err := AnalyzeObservedContext(probe, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	crit := criteriaOf(t, a)[0]
	afterAnalyze := probe.calls(budget)
	want, err := a.Agrawal(crit)
	if err != nil {
		t.Fatal(err)
	}
	sliceChecks := probe.calls(budget) - afterAnalyze
	if sliceChecks < 2 {
		t.Fatalf("slice consumed %d cancellation checks; cadence too coarse to test", sliceChecks)
	}

	for k := int64(0); k < sliceChecks; k++ {
		reg := obs.NewRegistry()
		ctx := newCountdownCtx(budget)
		a, err := AnalyzeObservedContext(ctx, p, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Rearm the countdown so exactly k checks succeed during the
		// slice, then every later check observes cancellation.
		ctx.remaining.Store(k)
		s, err := a.Agrawal(crit)
		if err == nil {
			t.Fatalf("k=%d: slice completed despite cancellation (%d checks expected)", k, sliceChecks)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want wrapped context.Canceled", k, err)
		}
		if s != nil {
			t.Errorf("k=%d: canceled slice returned a non-nil result", k)
		}
		sites := 0
		for _, site := range []string{"fig7", "closure", "normalize", "analyze"} {
			sites += strings.Count(err.Error(), "core: "+site+": ")
		}
		if sites != 1 {
			t.Errorf("k=%d: err %q names %d known cancellation sites, want 1", k, err, sites)
		}
		if got := reg.Counter("core.cancellations").Value(); got != 1 {
			t.Errorf("k=%d: core.cancellations = %d, want exactly 1", k, got)
		}
	}

	// A fresh uncanceled run still yields the reference slice: the
	// cancellation machinery does not perturb results.
	a2, err := AnalyzeObservedContext(newCountdownCtx(budget), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a2.Agrawal(crit)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Nodes.Equal(want.Nodes) {
		t.Errorf("slice under armed-but-live context differs from reference")
	}
}

// TestCancelCountsAndBatch asserts the cancellations metric increments
// and that the batch (SliceAll) path is cancelable inside its
// condensation closures too.
func TestCancelCountsAndBatch(t *testing.T) {
	p := progen.Unstructured(progen.Config{Seed: 11, Stmts: 60})
	reg := obs.NewRegistry()
	ctx := newCountdownCtx(1 << 30)
	a, err := AnalyzeObservedContext(ctx, p, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	crits := criteriaOf(t, a)
	ctx.remaining.Store(1)
	if _, err := a.SliceAll(crits); !errors.Is(err, context.Canceled) {
		t.Fatalf("SliceAll under cancellation: err = %v, want wrapped context.Canceled", err)
	}
	snap := reg.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "core.cancellations" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("core.cancellations counter missing or zero after a canceled SliceAll: %+v", snap.Counters)
	}
}
