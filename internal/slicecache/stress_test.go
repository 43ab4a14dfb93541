package slicecache_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// TestStressConcurrent is the cache's -race workout: many goroutines
// hammer a small key space with a mix of identical and distinct
// requests against a budget tight enough to force evictions. It
// asserts the three invariants the design promises:
//
//   - singleflight: each key's build runs at most once while any
//     request for it is in flight (checked with a per-key in-flight
//     flag that trips on overlap);
//   - determinism: every caller of a key receives an analysis that
//     slices that key's program identically;
//   - exact accounting: after the storm, the byte ledger equals the
//     summed cost of resident entries (Cache.VerifyAccounting), with
//     stats consistent: hits + misses + coalesced == total requests.
func TestStressConcurrent(t *testing.T) {
	const (
		keys    = 24
		workers = 16
		rounds  = 60
	)
	type prog struct {
		src   string
		prog  *lang.Program
		lines []int // expected Agrawal slice lines, computed uncached
		crit  core.Criterion
	}
	progs := make([]prog, keys)
	var budget int64
	for i := range progs {
		p := progen.Unstructured(progen.Config{Seed: int64(100 + i), Stmts: 12 + i%9})
		src := lang.Format(p, lang.PrintOptions{})
		parsed, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("key %d: reparse: %v", i, err)
		}
		wcs := progen.WriteCriteria(parsed)
		crit := core.Criterion{Var: wcs[len(wcs)-1].Var, Line: wcs[len(wcs)-1].Line}
		a := core.MustAnalyze(parsed)
		s, err := a.Agrawal(crit)
		if err != nil {
			t.Fatalf("key %d: uncached slice: %v", i, err)
		}
		progs[i] = prog{src: src, prog: parsed, lines: s.Lines(), crit: crit}
		budget += a.Footprint() + int64(len(src)) + 256
	}

	reg := obs.NewRegistry()
	// Budget for roughly a third of the working set: evictions are
	// constant, and every insert races with lookups.
	c := slicecache.New(slicecache.Options{
		MaxBytes: budget / 3,
		Recorder: reg,
	})

	inflight := make([]atomic.Bool, keys) // singleflight tripwire
	buildCount := make([]atomic.Int64, keys)
	build := func(i int) func(context.Context) (*core.Analysis, error) {
		return func(ctx context.Context) (*core.Analysis, error) {
			if !inflight[i].CompareAndSwap(false, true) {
				return nil, fmt.Errorf("key %d: two builds in flight", i)
			}
			defer inflight[i].Store(false)
			buildCount[i].Add(1)
			p, err := lang.Parse(progs[i].src)
			if err != nil {
				return nil, err
			}
			a, err := core.AnalyzeObservedContext(ctx, p, nil, nil)
			if err != nil {
				return nil, err
			}
			return a.Rebind(nil, nil, nil), nil
		}
	}

	var wg sync.WaitGroup
	var total atomic.Int64
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				// Zipf-ish skew: half the traffic on a quarter of the
				// keys, so identical concurrent requests are common.
				i := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					i = rng.Intn(keys / 4)
				}
				a, _, err := c.Get(context.Background(), progs[i].src, build(i))
				total.Add(1)
				if err != nil {
					errc <- fmt.Errorf("worker %d round %d key %d: %w", w, r, i, err)
					return
				}
				s, err := a.Rebind(context.Background(), nil, nil).Agrawal(progs[i].crit)
				if err != nil {
					errc <- fmt.Errorf("worker %d key %d: slice: %w", w, i, err)
					return
				}
				got := s.Lines()
				if len(got) != len(progs[i].lines) {
					errc <- fmt.Errorf("worker %d key %d: slice %v, want %v", w, i, got, progs[i].lines)
					return
				}
				for j := range got {
					if got[j] != progs[i].lines[j] {
						errc <- fmt.Errorf("worker %d key %d: slice %v, want %v", w, i, got, progs[i].lines)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if got := st.Hits + st.Misses + st.Coalesced; got != total.Load() {
		t.Errorf("hits(%d)+misses(%d)+coalesced(%d) = %d, want %d requests",
			st.Hits, st.Misses, st.Coalesced, got, total.Load())
	}
	if st.Evictions == 0 {
		t.Error("stress budget produced no evictions; tighten MaxBytes")
	}
	// Every build either ran under the singleflight guard or the
	// tripwire above would have failed the Get; also require that the
	// mirrored gauges agree with the exact ledger once quiescent.
	if got := reg.Gauge("cache.resident_bytes").Value(); got != st.Bytes {
		t.Errorf("resident_bytes gauge %d != stats bytes %d", got, st.Bytes)
	}
	if got := reg.Gauge("cache.entries").Value(); got != int64(st.Entries) {
		t.Errorf("entries gauge %d != stats entries %d", got, st.Entries)
	}
	var rebuilds int64
	for i := range buildCount {
		rebuilds += buildCount[i].Load()
	}
	if rebuilds != st.Misses {
		t.Errorf("%d builds ran vs %d misses recorded", rebuilds, st.Misses)
	}
}

// TestStressCancellation mixes canceled and patient waiters on the
// same keys under -race: canceled waiters must detach cleanly, patient
// ones must always receive a correct analysis.
func TestStressCancellation(t *testing.T) {
	p := progen.Structured(progen.Config{Seed: 7, Stmts: 30})
	src := lang.Format(p, lang.PrintOptions{})
	build := func(ctx context.Context) (*core.Analysis, error) {
		pp, err := lang.Parse(src)
		if err != nil {
			return nil, err
		}
		a, err := core.AnalyzeObservedContext(ctx, pp, nil, nil)
		if err != nil {
			return nil, err
		}
		return a.Rebind(nil, nil, nil), nil
	}
	c := slicecache.New(slicecache.Options{})
	const workers = 12
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				if w%3 == 0 {
					// Impatient: cancel immediately and tolerate
					// either outcome — a context error or a result
					// that won the race.
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if a, _, err := c.Get(ctx, src, build); err == nil && a == nil {
						errc <- fmt.Errorf("worker %d: nil analysis with nil error", w)
						return
					}
					continue
				}
				a, _, err := c.Get(context.Background(), src, build)
				if err != nil {
					errc <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if a == nil {
					errc <- fmt.Errorf("worker %d: nil analysis", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}
