package slicecache_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/slicecache"
)

// analyzeSrc builds a detached analysis of src, as the daemon stores
// into a session slot.
func analyzeSrc(t *testing.T, src string) *core.Analysis {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AnalyzeObservedContext(context.Background(), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a.Rebind(nil, nil, nil)
}

func TestSessionKeyDomainSeparation(t *testing.T) {
	if slicecache.SessionKey("abc") == slicecache.KeyOf("abc") {
		t.Fatal("session key collides with the content key of the same string")
	}
	if slicecache.SessionKey("a") == slicecache.SessionKey("b") {
		t.Fatal("distinct session ids share a key")
	}
	if slicecache.SessionKey("a") != slicecache.SessionKey("a") {
		t.Fatal("same session id, different keys")
	}
}

func TestSessionPutGetDelete(t *testing.T) {
	const src = "read(x);\nwrite(x);\n"
	a := analyzeSrc(t, src)
	c := slicecache.New(slicecache.Options{})
	k := slicecache.SessionKey("s1")

	if got, ok := c.GetKey(k); ok || got != nil {
		t.Fatal("GetKey on an empty cache returned an entry")
	}
	c.PutKey(k, src, a)
	got, ok := c.GetKey(k)
	if !ok || got != a {
		t.Fatalf("GetKey = %v, %v; want the stored analysis", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after put+2 gets: %+v", st)
	}
	if st.Bytes <= a.Footprint() {
		t.Fatalf("resident bytes %d do not cover the analysis footprint %d", st.Bytes, a.Footprint())
	}

	// Re-put under the same key replaces, not duplicates.
	b := analyzeSrc(t, src)
	c.PutKey(k, src, b)
	if got, _ := c.GetKey(k); got != b {
		t.Fatal("re-put did not replace the session analysis")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("re-put duplicated the entry: %+v", st)
	}

	if !c.DeleteKey(k) {
		t.Fatal("DeleteKey reported no resident entry")
	}
	if c.DeleteKey(k) {
		t.Fatal("second DeleteKey reported a resident entry")
	}
	if _, ok := c.GetKey(k); ok {
		t.Fatal("GetKey found a deleted session")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("ledger not empty after delete: %+v", st)
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSharedBudgetUnderPressure runs session traffic (PutKey /
// GetKey / DeleteKey) and anonymous content traffic (Get) against one
// deliberately tiny shared budget, concurrently, and checks that the
// byte ledger stays exact and neither population starves the other:
// after the storm, both a session put and a content get must still be
// able to become resident. Run under -race this also exercises the
// locking of the session paths against the singleflight machinery.
func TestSessionSharedBudgetUnderPressure(t *testing.T) {
	srcs := make([]string, 6)
	builds := make([]func(context.Context) (*core.Analysis, error), len(srcs))
	for i := range srcs {
		src := fmt.Sprintf("read(x);\nx = x + %d;\nwrite(x);\n", i)
		srcs[i] = src
		builds[i] = func(ctx context.Context) (*core.Analysis, error) {
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
	probe := analyzeSrc(t, srcs[0])
	cost := int64(len(srcs[0])) + probe.Footprint() + 512
	// Room for roughly three entries: every insert fights for space.
	c := slicecache.New(slicecache.Options{MaxBytes: 3 * cost})

	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(id string, src string) { // session worker
			defer wg.Done()
			k := slicecache.SessionKey(id)
			a := analyzeSrc(t, src)
			for i := 0; i < iters; i++ {
				if _, ok := c.GetKey(k); !ok {
					c.PutKey(k, src, a) // evicted (or first round): rebuild
				}
				if i%10 == 9 {
					c.DeleteKey(k)
				}
			}
		}(fmt.Sprintf("sess-%d", w), srcs[w])
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) { // content worker
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := (w + i) % len(srcs)
				if _, _, err := c.Get(context.Background(), srcs[j], builds[j]); err != nil {
					t.Errorf("content Get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident %d bytes over budget %d", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("budget pressure produced no evictions; the test exercised nothing")
	}

	// Neither population is starved once the storm has passed: a fresh
	// session put is resident, and so is a fresh content build.
	k := slicecache.SessionKey("after")
	c.PutKey(k, srcs[0], probe)
	if _, ok := c.GetKey(k); !ok {
		t.Fatal("session entry cannot become resident after content pressure")
	}
	if _, _, err := c.Get(context.Background(), srcs[1], builds[1]); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(srcs[1]) {
		t.Fatal("content entry cannot become resident alongside sessions")
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}
