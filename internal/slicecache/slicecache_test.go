package slicecache_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// buildFig5 is the canonical build function the tests share: parse and
// analyze the paper's Figure 5 program, detached for caching.
func buildFig5(t *testing.T) (string, func(context.Context) (*core.Analysis, error)) {
	t.Helper()
	src := lang.Format(paper.Fig5().Parse(), lang.PrintOptions{})
	return src, func(ctx context.Context) (*core.Analysis, error) {
		p, err := lang.Parse(src)
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

func TestKeyOf(t *testing.T) {
	a, b := slicecache.KeyOf("x = 1"), slicecache.KeyOf("x = 2")
	if a == b {
		t.Fatal("distinct sources share a key")
	}
	if a != slicecache.KeyOf("x = 1") {
		t.Fatal("same source, different keys")
	}
	if len(a.Hex()) != 64 || strings.ToLower(a.Hex()) != a.Hex() {
		t.Fatalf("Hex() = %q, want 64 lowercase hex chars", a.Hex())
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[slicecache.Outcome]string{
		slicecache.Miss:      "miss",
		slicecache.Hit:       "hit",
		slicecache.Coalesced: "coalesced",
	} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}

// TestMissThenHit asserts the basic contract: first Get builds, second
// is served the same analysis without rebuilding, and both produce
// identical slices.
func TestMissThenHit(t *testing.T) {
	src, build := buildFig5(t)
	builds := 0
	counted := func(ctx context.Context) (*core.Analysis, error) {
		builds++
		return build(ctx)
	}
	c := slicecache.New(slicecache.Options{})
	a1, out, err := c.Get(context.Background(), src, counted)
	if err != nil || out != slicecache.Miss {
		t.Fatalf("first Get: outcome=%v err=%v, want miss/nil", out, err)
	}
	a2, out, err := c.Get(context.Background(), src, counted)
	if err != nil || out != slicecache.Hit {
		t.Fatalf("second Get: outcome=%v err=%v, want hit/nil", out, err)
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	if a1 != a2 {
		t.Fatal("hit returned a different analysis pointer than the miss")
	}
	if !c.Contains(src) {
		t.Fatal("Contains(src) = false after positive insert")
	}
	f := paper.Fig5()
	crit := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
	s1, err1 := a1.Rebind(context.Background(), nil, nil).Agrawal(crit)
	s2, err2 := a2.Rebind(context.Background(), nil, nil).Agrawal(crit)
	if err1 != nil || err2 != nil {
		t.Fatalf("slicing rebound views: %v / %v", err1, err2)
	}
	if !s1.Nodes.Equal(s2.Nodes) {
		t.Fatal("cached analysis slices differently across views")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry, positive bytes", st)
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeCaching asserts build errors are cached and served for
// DefaultNegTTL, then rebuilt after expiry — under an injected clock.
func TestNegativeCaching(t *testing.T) {
	clock := time.Unix(1000, 0)
	c := slicecache.New(slicecache.Options{
		Now: func() time.Time { return clock },
	})
	boom := errors.New("parse error: unbalanced block")
	builds := 0
	build := func(context.Context) (*core.Analysis, error) {
		builds++
		return nil, boom
	}
	if _, out, err := c.Get(context.Background(), "bad src", build); !errors.Is(err, boom) || out != slicecache.Miss {
		t.Fatalf("first Get: outcome=%v err=%v", out, err)
	}
	if _, out, err := c.Get(context.Background(), "bad src", build); !errors.Is(err, boom) || out != slicecache.Hit {
		t.Fatalf("within TTL: outcome=%v err=%v, want hit with cached error", out, err)
	}
	if builds != 1 {
		t.Fatalf("build ran %d times within TTL, want 1", builds)
	}
	clock = clock.Add(slicecache.DefaultNegTTL + time.Second)
	if _, out, err := c.Get(context.Background(), "bad src", build); !errors.Is(err, boom) || out != slicecache.Miss {
		t.Fatalf("after TTL: outcome=%v err=%v, want rebuilt miss", out, err)
	}
	if builds != 2 {
		t.Fatalf("build ran %d times after expiry, want 2", builds)
	}
	st := c.Stats()
	if st.NegHits != 1 {
		t.Fatalf("NegHits = %d, want 1", st.NegHits)
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestContextErrorsNotCached asserts a canceled build poisons nothing:
// the next Get rebuilds.
func TestContextErrorsNotCached(t *testing.T) {
	c := slicecache.New(slicecache.Options{})
	builds := 0
	build := func(context.Context) (*core.Analysis, error) {
		builds++
		if builds == 1 {
			return nil, fmt.Errorf("analyze: %w", context.Canceled)
		}
		return nil, errors.New("real error")
	}
	if _, _, err := c.Get(context.Background(), "s", build); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Get err = %v", err)
	}
	if _, out, err := c.Get(context.Background(), "s", build); out != slicecache.Miss || err == nil {
		t.Fatalf("second Get: outcome=%v err=%v, want fresh miss", out, err)
	}
	if builds != 2 {
		t.Fatalf("build ran %d times, want 2 (context error must not be cached)", builds)
	}
}

// TestLRUEviction fills a tiny cache and asserts the least recently
// used entries are evicted first, with the ledger exact throughout.
func TestLRUEviction(t *testing.T) {
	src, build := buildFig5(t)
	probe := slicecache.New(slicecache.Options{})
	a, _, err := probe.Get(context.Background(), src, build)
	if err != nil {
		t.Fatal(err)
	}
	// Budget for roughly two entries.
	per := a.Footprint() + int64(len(src)) + 256
	c := slicecache.New(slicecache.Options{MaxBytes: 2*per + per/2})
	mk := func(tag string) string { return src + "\n# " + tag } // distinct keys, same parse
	wrap := func(s string) func(context.Context) (*core.Analysis, error) {
		return func(ctx context.Context) (*core.Analysis, error) { return build(ctx) }
	}
	for _, tag := range []string{"a", "b"} {
		if _, _, err := c.Get(context.Background(), mk(tag), wrap(mk(tag))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes the LRU victim.
	if _, out, _ := c.Get(context.Background(), mk("a"), wrap(mk("a"))); out != slicecache.Hit {
		t.Fatalf("touch of a: outcome=%v, want hit", out)
	}
	if _, _, err := c.Get(context.Background(), mk("c"), wrap(mk("c"))); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(mk("a")) || c.Contains(mk("b")) || !c.Contains(mk("c")) {
		t.Fatalf("residency after eviction: a=%v b=%v c=%v, want a and c only",
			c.Contains(mk("a")), c.Contains(mk("b")), c.Contains(mk("c")))
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedEntry asserts an analysis larger than the whole budget
// is still returned to its caller but never becomes resident.
func TestOversizedEntry(t *testing.T) {
	src, build := buildFig5(t)
	c := slicecache.New(slicecache.Options{MaxBytes: 64})
	a, out, err := c.Get(context.Background(), src, build)
	if err != nil || a == nil || out != slicecache.Miss {
		t.Fatalf("Get: a=%v outcome=%v err=%v", a, out, err)
	}
	if c.Contains(src) {
		t.Fatal("oversized entry stayed resident")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("stats after oversized insert = %+v, want empty cache", st)
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// buildOf returns a build function that parses and analyzes src,
// detached for caching.
func buildOf(src string) func(context.Context) (*core.Analysis, error) {
	return func(ctx context.Context) (*core.Analysis, error) {
		p, err := lang.Parse(src)
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

// TestLargeAnalysisStaysResident asserts the budget is one pool: with
// the default Options and small analyses already resident, a
// 3018-statement analysis (Footprint 4.57 MB, well under the 64 MiB
// budget) is a hit on its second Get, and no resident entry is
// evicted to make room for it.
func TestLargeAnalysisStaysResident(t *testing.T) {
	c := slicecache.New(slicecache.Options{})
	var small []string
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf("read(x);\nx = x + %d;\nwrite(x);\n", i)
		if _, _, err := c.Get(context.Background(), src, buildOf(src)); err != nil {
			t.Fatal(err)
		}
		small = append(small, src)
	}
	big := lang.Format(progen.Structured(progen.Config{Seed: 7, Stmts: 1800}), lang.PrintOptions{})
	for _, want := range []slicecache.Outcome{slicecache.Miss, slicecache.Hit} {
		if _, out, err := c.Get(context.Background(), big, buildOf(big)); err != nil || out != want {
			t.Fatalf("Get(big): outcome=%v err=%v, want %v", out, err, want)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Entries != len(small)+1 {
		t.Fatalf("stats = %+v, want %d entries and no evictions", st, len(small)+1)
	}
	for i, src := range small {
		if !c.Contains(src) {
			t.Fatalf("small analysis %d evicted by the large one", i)
		}
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedEntryLeavesResidents asserts an entry costlier than the
// whole budget is refused without disturbing what is resident: through
// Get, PutKey and ResultCache.Put, every resident entry stays, the
// byte ledger does not move, and each refusal counts as one eviction.
func TestOversizedEntryLeavesResidents(t *testing.T) {
	bigSrc := lang.Format(progen.Structured(progen.Config{Seed: 7, Stmts: 300}), lang.PrintOptions{})
	bigA := analyzeSrc(t, bigSrc)
	bigCost := int64(len(bigSrc)) + bigA.Footprint() + 256

	c := slicecache.New(slicecache.Options{MaxBytes: bigCost - 1})
	var small []string
	for i := 0; i < 64; i++ {
		src := fmt.Sprintf("read(x);\nx = x + %d;\nwrite(x);\n", i)
		if _, _, err := c.Get(context.Background(), src, buildOf(src)); err != nil {
			t.Fatal(err)
		}
		small = append(small, src)
	}
	before := c.Stats()
	if before.Entries != len(small) || before.Evictions != 0 {
		t.Fatalf("small analyses do not all fit the budget: %+v", before)
	}
	check := func(via string, wantEvictions int64) {
		t.Helper()
		st := c.Stats()
		if st.Bytes != before.Bytes || st.Entries != before.Entries || st.Evictions != wantEvictions {
			t.Fatalf("after oversized %s: stats = %+v, want bytes %d, %d entries, %d evictions",
				via, st, before.Bytes, before.Entries, wantEvictions)
		}
		for i, src := range small {
			if !c.Contains(src) {
				t.Fatalf("oversized %s evicted resident entry %d", via, i)
			}
		}
		if err := c.VerifyAccounting(); err != nil {
			t.Fatal(err)
		}
	}

	a, out, err := c.Get(context.Background(), bigSrc, buildOf(bigSrc))
	if err != nil || a == nil || out != slicecache.Miss {
		t.Fatalf("Get(big): a=%v outcome=%v err=%v", a, out, err)
	}
	if c.Contains(bigSrc) {
		t.Fatal("oversized analysis became resident")
	}
	check("Get", 1)

	k := slicecache.SessionKey("big")
	c.PutKey(k, bigSrc, bigA)
	if _, ok := c.GetKey(k); ok {
		t.Fatal("oversized session analysis became resident")
	}
	check("PutKey", 2)

	reg := obs.NewRegistry()
	rc := slicecache.NewResultCache(slicecache.ResultOptions{MaxBytes: 4096, Recorder: reg})
	keys := []slicecache.ResultKey{slicecache.ResultKeyOf("a"), slicecache.ResultKeyOf("b")}
	for _, key := range keys {
		rc.Put(key, make([]byte, 1000))
	}
	rbefore := rc.ResultStats()
	huge := slicecache.ResultKeyOf("huge")
	rc.Put(huge, make([]byte, 8192))
	if got := rc.ResultStats(); got != rbefore {
		t.Fatalf("after oversized ResultCache.Put: %+v, want %+v", got, rbefore)
	}
	if rc.Contains(huge) || !rc.Contains(keys[0]) || !rc.Contains(keys[1]) {
		t.Fatal("oversized record became resident or evicted a resident record")
	}
	if got := reg.Counter("result.evictions").Value(); got != 1 {
		t.Fatalf("result.evictions = %d, want 1 for the refused record", got)
	}
}

// TestCoalescing asserts N concurrent identical Gets run one build and
// all share its result, with N-1 counted as coalesced.
func TestCoalescing(t *testing.T) {
	src, build := buildFig5(t)
	gate := make(chan struct{})
	var builds int
	var bmu sync.Mutex
	slow := func(ctx context.Context) (*core.Analysis, error) {
		bmu.Lock()
		builds++
		bmu.Unlock()
		<-gate
		return build(ctx)
	}
	c := slicecache.New(slicecache.Options{})
	const n = 8
	var wg sync.WaitGroup
	results := make([]*core.Analysis, n)
	outcomes := make([]slicecache.Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], outcomes[i], errs[i] = c.Get(context.Background(), src, slow)
		}(i)
	}
	// Let the waiters pile up behind the one in-flight build.
	for {
		if st := c.Stats(); st.Misses == 1 && st.Coalesced == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("waiters received different analyses")
		}
	}
	bmu.Lock()
	defer bmu.Unlock()
	if builds != 1 {
		t.Fatalf("build ran %d times for %d concurrent identical Gets", builds, n)
	}
	misses, coalesced := 0, 0
	for _, o := range outcomes {
		switch o {
		case slicecache.Miss:
			misses++
		case slicecache.Coalesced:
			coalesced++
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("outcomes: %d misses, %d coalesced; want 1 and %d", misses, coalesced, n-1)
	}
}

// TestWaiterCancellation asserts the singleflight cancellation
// contract: a canceled waiter detaches with its own context error while
// the build keeps running for the remaining waiter; and when every
// waiter is gone, the build's context is canceled.
func TestWaiterCancellation(t *testing.T) {
	src, build := buildFig5(t)
	gate := make(chan struct{})
	buildCtx := make(chan context.Context, 1)
	slow := func(ctx context.Context) (*core.Analysis, error) {
		buildCtx <- ctx
		<-gate
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return build(ctx)
	}
	c := slicecache.New(slicecache.Options{})

	// Phase 1: two waiters; cancel one. The survivor must still get
	// the result.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var survivorA *core.Analysis
	var survivorErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivorA, _, survivorErr = c.Get(context.Background(), src, slow)
	}()
	bctx := <-buildCtx // build started; now join it and then bail out
	done1 := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx1, src, slow)
		done1 <- err
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}
	if bctx.Err() != nil {
		t.Fatal("build context canceled while a waiter remains")
	}
	close(gate)
	wg.Wait()
	if survivorErr != nil || survivorA == nil {
		t.Fatalf("surviving waiter: a=%v err=%v", survivorA, survivorErr)
	}

	// Phase 2: a lone waiter cancels — the build context must die too.
	gate = make(chan struct{})
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx2, src+" ", slow)
		done2 <- err
	}()
	bctx2 := <-buildCtx
	cancel2()
	if err := <-done2; !errors.Is(err, context.Canceled) {
		t.Fatalf("lone waiter err = %v, want context.Canceled", err)
	}
	select {
	case <-bctx2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("build context not canceled after last waiter left")
	}
	close(gate)
}

// TestMetrics asserts the cache mirrors its stats into the registry
// under the pinned instrument names.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	clock := time.Unix(0, 0)
	c := slicecache.New(slicecache.Options{
		Recorder: reg,
		Now:      func() time.Time { return clock },
	})
	src, build := buildFig5(t)
	if _, _, err := c.Get(context.Background(), src, build); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(context.Background(), src, build); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("bad program")
	bad := func(context.Context) (*core.Analysis, error) { return nil, boom }
	c.Get(context.Background(), "junk", bad)
	c.Get(context.Background(), "junk", bad)

	st := c.Stats()
	want := map[string]int64{
		"cache.hits":      st.Hits,
		"cache.misses":    st.Misses,
		"cache.coalesced": st.Coalesced,
		"cache.neg_hits":  st.NegHits,
		"cache.evictions": st.Evictions,
	}
	for name, v := range want {
		if got := reg.Counter(name).Value(); got != v {
			t.Errorf("counter %s = %d, want %d (stats: %+v)", name, got, v, st)
		}
	}
	if got := reg.Gauge("cache.resident_bytes").Value(); got != st.Bytes {
		t.Errorf("gauge cache.resident_bytes = %d, want %d", got, st.Bytes)
	}
	if got := reg.Gauge("cache.entries").Value(); got != int64(st.Entries) {
		t.Errorf("gauge cache.entries = %d, want %d", got, st.Entries)
	}
	if st.Hits != 1 || st.Misses != 2 || st.NegHits != 1 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 1 neg hit", st)
	}
}

// TestBuildReturnsNeither asserts a build that returns (nil, nil) is
// surfaced as an error, not a nil-analysis hit.
func TestBuildReturnsNeither(t *testing.T) {
	c := slicecache.New(slicecache.Options{})
	_, _, err := c.Get(context.Background(), "s", func(context.Context) (*core.Analysis, error) {
		return nil, nil
	})
	if err == nil {
		t.Fatal("Get accepted a build returning (nil, nil)")
	}
}

// TestZeroOptions asserts the defaults advertised in Options.
func TestZeroOptions(t *testing.T) {
	c := slicecache.New(slicecache.Options{})
	st := c.Stats()
	if st.MaxBytes != slicecache.DefaultMaxBytes {
		t.Errorf("MaxBytes = %d, want %d", st.MaxBytes, slicecache.DefaultMaxBytes)
	}
}

// TestNilRegistryIsDisabled asserts a nil *obs.Registry is a valid,
// disabled metrics sink for both cache tiers: each still serves and
// keeps its own Stats.
func TestNilRegistryIsDisabled(t *testing.T) {
	var reg *obs.Registry
	src, build := buildFig5(t)
	c := slicecache.New(slicecache.Options{Recorder: reg})
	for _, want := range []slicecache.Outcome{slicecache.Miss, slicecache.Hit} {
		if _, out, err := c.Get(context.Background(), src, build); err != nil || out != want {
			t.Fatalf("Get: outcome=%v err=%v, want %v", out, err, want)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats with nil registry = %+v", st)
	}
	rc := slicecache.NewResultCache(slicecache.ResultOptions{Recorder: reg})
	key := slicecache.ResultKeyOf("src", "x")
	rc.Put(key, []byte("record"))
	if data, src := rc.Get(key); src != slicecache.ResultMemory || string(data) != "record" {
		t.Errorf("result cache with nil registry: %q from %v", data, src)
	}
}
