package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// TestCacheMissThenHit asserts the X-Cache header narrates the cache's
// verdict — the first request for a program is a miss, later requests
// that the result tier has not seen are analysis hits, and identical
// repeats are result hits — and that the cached paths answer with the
// first request's slice.
func TestCacheMissThenHit(t *testing.T) {
	_, ts := newTestServer(t)
	fig := fig5(t)

	resp1, sr1 := postSlice(t, ts, "var=positives&line=14", fig)
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	// Explain is part of the result key, so this misses the result
	// tier and hits the analysis cache.
	resp2, sr2 := postSlice(t, ts, "var=positives&line=14&explain=1", fig)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
	if fmt.Sprint(sr1.Lines) != fmt.Sprint(sr2.Lines) || sr1.Text != sr2.Text {
		t.Errorf("cached response differs from uncached: %v vs %v", sr1.Lines, sr2.Lines)
	}
	resp3, sr3 := postSlice(t, ts, "var=positives&line=14", fig)
	if got := resp3.Header.Get("X-Cache"); got != "result" {
		t.Errorf("identical repeat X-Cache = %q, want result", got)
	}
	if fmt.Sprint(sr1.Lines) != fmt.Sprint(sr3.Lines) || sr1.Text != sr3.Text {
		t.Errorf("replayed response differs from computed: %v vs %v", sr1.Lines, sr3.Lines)
	}
	// A different algorithm on the same program still hits: one
	// analysis serves every algorithm.
	resp4, _ := postSlice(t, ts, "var=positives&line=14&algo=conventional", fig)
	if got := resp4.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("different-algo request X-Cache = %q, want hit", got)
	}
}

// TestETagRoundTrip asserts the conditional-request protocol: a 200
// carries a strong ETag, replaying it in If-None-Match answers 304
// with no body, and a different request tuple gets a different tag.
func TestETagRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	fig := fig5(t)

	resp, _ := postSlice(t, ts, "var=positives&line=14", fig)
	etag := resp.Header.Get("ETag")
	if etag == "" || strings.HasPrefix(etag, "W/") || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}

	req, err := http.NewRequest("POST", ts.URL+"/slice?var=positives&line=14", strings.NewReader(fig))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	nm, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Body.Close()
	if nm.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match replay: status %d, want 304", nm.StatusCode)
	}
	if body, _ := io.ReadAll(nm.Body); len(body) != 0 {
		t.Errorf("304 carried a %d-byte body", len(body))
	}
	if nm.Header.Get("ETag") != etag {
		t.Errorf("304 ETag = %q, want %q", nm.Header.Get("ETag"), etag)
	}

	// The validator covers the whole request tuple, not just the
	// source: a different criterion must produce a different tag.
	other, _ := postSlice(t, ts, "var=positives&line=12", fig)
	if other.Header.Get("ETag") == etag {
		t.Error("different criterion produced the same ETag")
	}
	// Stale and unrelated validators still get the full response.
	req2, _ := http.NewRequest("POST", ts.URL+"/slice?var=positives&line=14", strings.NewReader(fig))
	req2.Header.Set("If-None-Match", `"deadbeef"`)
	full, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Body.Close()
	if full.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", full.StatusCode)
	}
}

// TestDebugCacheEndpoint asserts /debug/cache exposes the live ledger.
func TestDebugCacheEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	fig := fig5(t)
	postSlice(t, ts, "var=positives&line=14", fig)
	postSlice(t, ts, "var=positives&line=14&explain=1", fig)
	// The result tier answers an identical repeat without asking the
	// analysis cache, so the counters below do not move.
	if resp, _ := postSlice(t, ts, "var=positives&line=14", fig); resp.Header.Get("X-Cache") != "result" {
		t.Errorf("identical repeat X-Cache = %q, want result", resp.Header.Get("X-Cache"))
	}

	resp, err := http.Get(ts.URL + "/debug/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state struct {
		Enabled bool             `json:"enabled"`
		Stats   slicecache.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if !state.Enabled {
		t.Fatal("/debug/cache reports disabled on a default server")
	}
	st := state.Stats
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry, positive bytes", st)
	}
	if st.MaxBytes != slicecache.DefaultMaxBytes {
		t.Errorf("max_bytes = %d, want the %d default", st.MaxBytes, slicecache.DefaultMaxBytes)
	}
}

// TestNegativeCacheReplay asserts client faults ride the negative
// cache with their status intact: the same malformed program answers
// 422 invalid_program both cold and from memory, and an oversized one
// keeps its 413.
func TestNegativeCacheReplay(t *testing.T) {
	cfg := testConfig()
	cfg.MaxStmts = 10
	s, ts := newTestServerConfig(t, cfg)

	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/slice?var=x&line=1", "text/plain", strings.NewReader("while ("))
		if err != nil {
			t.Fatal(err)
		}
		eb := decodeEnvelope(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 422 || eb.Code != "invalid_program" {
			t.Fatalf("attempt %d: status %d code %q, want 422 invalid_program", i, resp.StatusCode, eb.Code)
		}
	}
	big := fig5(t) // 15 statements > MaxStmts 10
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/slice?var=positives&line=14", "text/plain", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		eb := decodeEnvelope(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 413 || eb.Code != "program_too_large" {
			t.Fatalf("attempt %d: status %d code %q, want 413 program_too_large", i, resp.StatusCode, eb.Code)
		}
	}
	// Both faults were served from memory the second time.
	if st := s.cache.Stats(); st.NegHits != 2 {
		t.Errorf("NegHits = %d, want 2 (stats: %+v)", st.NegHits, st)
	}
}

// TestCacheCoalescing floods the daemon with identical concurrent
// requests and asserts exactly one analysis ran (one miss) while all
// succeed with identical slices. Scheduling decides how the rest
// split between coalesced (joined the in-flight analysis) and hit
// (arrived after it finished) — both verdicts mean "reused".
func TestCacheCoalescing(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 64
	_, ts := newTestServerConfig(t, cfg)
	src, v, line := bigProgram(t, 3000)
	query := fmt.Sprintf("var=%s&line=%d", v, line)

	const n = 8
	var wg sync.WaitGroup
	verdicts := make([]string, n)
	lines := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/slice?"+query, "text/plain", strings.NewReader(src))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var sr sliceResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				errs[i] = err
				return
			}
			verdicts[i] = resp.Header.Get("X-Cache")
			lines[i] = fmt.Sprint(sr.Lines)
		}(i)
	}
	wg.Wait()
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		counts[verdicts[i]]++
		if lines[i] != lines[0] {
			t.Errorf("request %d sliced differently: %s vs %s", i, lines[i], lines[0])
		}
	}
	if counts["miss"] != 1 {
		t.Errorf("X-Cache verdicts %v: want exactly 1 miss", counts)
	}
	if counts["miss"]+counts["hit"]+counts["coalesced"] != n {
		t.Errorf("X-Cache verdicts %v: unknown verdicts present", counts)
	}
}

// TestCacheSDGHit asserts algo=sdg rides the analysis cache: the same
// criterion without explain answers X-Cache: hit with the same slice,
// an identical repeat answers result with the same body, and the
// summary-edge worklist, which the miss ran before caching, does not
// run again.
func TestCacheSDGHit(t *testing.T) {
	s, ts := newTestServer(t)
	const query = "var=sum&line=10&algo=sdg&explain=1"
	resp1, sr1 := postSlice(t, ts, query, sdgTestProgram)
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first sdg request X-Cache = %q, want miss", got)
	}
	edges := s.reg.Counter("sdg.summary_edges").Value()
	if edges == 0 {
		t.Fatal("the miss computed no summary edges")
	}
	resp2, sr2 := postSlice(t, ts, "var=sum&line=10&algo=sdg", sdgTestProgram)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("sdg request without explain X-Cache = %q, want hit", got)
	}
	resp3, sr3 := postSlice(t, ts, query, sdgTestProgram)
	if got := resp3.Header.Get("X-Cache"); got != "result" {
		t.Errorf("repeated sdg request X-Cache = %q, want result", got)
	}
	if got := s.reg.Counter("sdg.summary_edges").Value(); got != edges {
		t.Errorf("sdg.summary_edges moved on a hit: %d → %d", edges, got)
	}
	sr1.Request, sr1.DurationNS, sr3.Request, sr3.DurationNS = 0, 0, 0, 0
	if !reflect.DeepEqual(sr1, sr3) {
		t.Errorf("replayed sdg response differs:\n%+v\n%+v", sr1, sr3)
	}
	unexplained := *sr1
	unexplained.Reasons, unexplained.Listing = nil, ""
	sr2.Request, sr2.DurationNS = 0, 0
	if !reflect.DeepEqual(&unexplained, sr2) {
		t.Errorf("cached sdg response differs:\n%+v\n%+v", &unexplained, sr2)
	}
}

// TestSDGDeadlineThenRetry expires a request's deadline while the
// daemon builds a large multi-procedure program's analysis, then
// repeats the request without a deadline: the abandoned build must
// neither be cached nor be joined, so the retry succeeds.
func TestSDGDeadlineThenRetry(t *testing.T) {
	s, _ := newTestServer(t)
	p := progen.MultiProc(progen.Config{Seed: 1, Stmts: 200, Procs: 8})
	wcs := progen.MainWriteCriteria(p)
	if len(wcs) == 0 {
		t.Fatal("generated program has no main write criteria")
	}
	src := lang.Format(p, lang.PrintOptions{})
	url := fmt.Sprintf("/slice?var=%s&line=%d&algo=sdg", wcs[0].Var, wcs[0].Line)
	post := func(ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(src)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if rec := post(ctx); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline-expired request: status %d, want 503: %s", rec.Code, rec.Body)
	}
	rec := post(context.Background())
	if rec.Code != http.StatusOK {
		t.Fatalf("retry: status %d, want 200: %s", rec.Code, rec.Body)
	}
	var sr sliceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Algorithm != "sdg" || len(sr.Lines) == 0 {
		t.Errorf("retry answered %q with lines %v", sr.Algorithm, sr.Lines)
	}
}
