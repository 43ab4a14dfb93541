package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"jumpslice/internal/slicecache"
)

// do issues one request and decodes the error envelope when the
// status is not the expected one.
func do(t *testing.T, method, url, contentType, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, want int, v any) {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d: %s",
			resp.Request.Method, resp.Request.URL, resp.StatusCode, want, data)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
}

// expectAPIError asserts the structured envelope: status and code.
func expectAPIError(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	var ae apiError
	decodeInto(t, resp, status, &ae)
	if ae.Error.Code != code {
		t.Fatalf("error code = %q, want %q", ae.Error.Code, code)
	}
	if ae.Error.Status != status {
		t.Fatalf("error body status = %d, want %d", ae.Error.Status, status)
	}
}

// TestExplainParamStrict pins the ?explain= contract: booleans in
// either spelling work, anything else is a structured 422 — it must
// not silently mean false.
func TestExplainParamStrict(t *testing.T) {
	_, ts := newTestServer(t)
	src := fig5(t)

	for _, v := range []string{"1", "true", "True"} {
		resp, err := http.Post(ts.URL+"/slice?var=positives&line=14&explain="+v, "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var sr sliceResponse
		decodeInto(t, resp, http.StatusOK, &sr)
		if sr.Listing == "" || len(sr.Reasons) == 0 {
			t.Fatalf("explain=%s: no provenance in response", v)
		}
	}
	for _, v := range []string{"yes", "2", "", "maybe"} {
		resp, err := http.Post(ts.URL+"/slice?var=positives&line=14&explain="+v, "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		expectAPIError(t, resp, http.StatusUnprocessableEntity, "invalid_parameter")
	}
	// explain=0 is a valid boolean meaning "no provenance".
	resp, err := http.Post(ts.URL+"/slice?var=positives&line=14&explain=0", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var sr sliceResponse
	decodeInto(t, resp, http.StatusOK, &sr)
	if sr.Listing != "" || len(sr.Reasons) != 0 {
		t.Fatal("explain=0 still produced provenance")
	}
}

// openSession POSTs fig5 (or the given source) and returns the id.
func openSession(t *testing.T, ts *httptest.Server, src string) string {
	t.Helper()
	resp := do(t, http.MethodPost, ts.URL+"/session", "text/plain", src)
	var sr sessionResponse
	decodeInto(t, resp, http.StatusCreated, &sr)
	if sr.Session == "" || sr.Statements == 0 {
		t.Fatalf("session response %+v missing id or statement count", sr)
	}
	return sr.Session
}

// patchEdit PATCHes a one-line replacement and returns the response.
func patchEdit(t *testing.T, ts *httptest.Server, id, query string, line int, text string) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"edit":{"op":"replace","line":%d,"text":%q}}`, line, text)
	return do(t, http.MethodPatch, ts.URL+"/session/"+id+"?"+query, "application/json", body)
}

func TestSessionLifecycle(t *testing.T) {
	s, ts := newTestServer(t)
	src := fig5(t)
	id := openSession(t, ts, src)

	// A one-line expression edit must ride the patched tier and still
	// produce the Figure 5 slice (line 2 is "positives = 0;" — the
	// edited constant keeps the same definitions).
	resp := patchEdit(t, ts, id, "var=positives&line=14", 2, "positives = 1;")
	if got := resp.Header.Get("X-Incremental"); got != "patched" {
		t.Errorf("X-Incremental = %q, want patched", got)
	}
	var pr sessionPatchResponse
	decodeInto(t, resp, http.StatusOK, &pr)
	if pr.Incremental == nil || pr.Incremental.Outcome != "patched" {
		t.Fatalf("incremental stats = %+v, want patched", pr.Incremental)
	}
	if pr.Incremental.PhasesReused < 5 {
		t.Errorf("phases_reused = %d, want >= 5", pr.Incremental.PhasesReused)
	}
	has := func(lines []int, l int) bool {
		for _, x := range lines {
			if x == l {
				return true
			}
		}
		return false
	}
	if !has(pr.Lines, 7) || has(pr.Lines, 11) {
		t.Errorf("post-edit slice %v should keep line 7 and drop line 11", pr.Lines)
	}
	// An identical program edit changes no slice: the delta is empty.
	if len(pr.LinesAdded) != 0 || len(pr.LinesRemoved) != 0 {
		t.Errorf("constant edit changed the slice: +%v -%v", pr.LinesAdded, pr.LinesRemoved)
	}

	// The incremental counters surfaced in /metrics.
	mresp := do(t, http.MethodGet, ts.URL+"/metrics", "", "")
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	m := regexp.MustCompile(`jumpslice_incr_reused_total (\d+)`).FindSubmatch(metrics)
	if m == nil || string(m[1]) == "0" {
		t.Errorf("metrics missing nonzero jumpslice_incr_reused_total:\n%s", metrics)
	}

	// A structural edit (full source replacement with one extra write)
	// reports the full tier.
	resp = do(t, http.MethodPatch, ts.URL+"/session/"+id+"?var=positives&line=14", "text/plain",
		strings.Replace(src, "positives = 0;", "positives = 1;", 1)+"write(positives);\n")
	if got := resp.Header.Get("X-Incremental"); got != "full" {
		t.Errorf("structural edit X-Incremental = %q, want full", got)
	}
	decodeInto(t, resp, http.StatusOK, &pr)

	// DELETE closes the session and releases its cache entry.
	resp = do(t, http.MethodDelete, ts.URL+"/session/"+id, "", "")
	var dr sessionResponse
	decodeInto(t, resp, http.StatusOK, &dr)
	if !dr.Deleted {
		t.Fatal("delete response not marked deleted")
	}
	if _, ok := s.cache.GetKey(slicecache.SessionKey(id)); ok {
		t.Fatal("session analysis still resident after DELETE")
	}
	resp = patchEdit(t, ts, id, "var=positives&line=14", 2, "positives = 2;")
	expectAPIError(t, resp, http.StatusNotFound, "unknown_session")
}

// TestSessionFailedEditLeavesSessionIntact: a PATCH that cannot parse
// must not advance the session, and the next good edit still applies
// against the pre-failure source.
func TestSessionFailedEditLeavesSessionIntact(t *testing.T) {
	_, ts := newTestServer(t)
	id := openSession(t, ts, fig5(t))

	resp := patchEdit(t, ts, id, "var=positives&line=14", 2, "positives = = 1;")
	expectAPIError(t, resp, http.StatusUnprocessableEntity, "invalid_program")

	// Out-of-range line: 400, session intact.
	resp = patchEdit(t, ts, id, "var=positives&line=14", 9999, "positives = 1;")
	expectAPIError(t, resp, http.StatusBadRequest, "bad_request")

	// The session still answers from its original source.
	resp = patchEdit(t, ts, id, "var=positives&line=14", 2, "positives = 3;")
	var pr sessionPatchResponse
	decodeInto(t, resp, http.StatusOK, &pr)
	if pr.Incremental.Outcome != "patched" {
		t.Fatalf("post-failure edit outcome = %q, want patched", pr.Incremental.Outcome)
	}
}

// TestSessionEvictedRebuildsFull: when the cache drops a session's
// analysis (budget pressure, simulated by a direct delete), the next
// PATCH transparently rebuilds cold and keeps the session usable.
func TestSessionEvictedRebuildsFull(t *testing.T) {
	s, ts := newTestServer(t)
	id := openSession(t, ts, fig5(t))
	if !s.cache.DeleteKey(slicecache.SessionKey(id)) {
		t.Fatal("session analysis was not resident")
	}
	resp := patchEdit(t, ts, id, "var=positives&line=14", 2, "positives = 1;")
	if got := resp.Header.Get("X-Incremental"); got != "full" {
		t.Errorf("evicted session X-Incremental = %q, want full", got)
	}
	var pr sessionPatchResponse
	decodeInto(t, resp, http.StatusOK, &pr)
	// The rebuild re-pinned the analysis: the next edit is incremental
	// again.
	resp = patchEdit(t, ts, id, "var=positives&line=14", 2, "positives = 2;")
	if got := resp.Header.Get("X-Incremental"); got != "patched" {
		t.Errorf("post-rebuild X-Incremental = %q, want patched", got)
	}
	decodeInto(t, resp, http.StatusOK, &pr)
}

// TestSessionDeltaReporting: an edit that changes a definition the
// slice depends on must surface the slice delta line-by-line.
func TestSessionDeltaReporting(t *testing.T) {
	_, ts := newTestServer(t)
	const src = "read(a);\nread(b);\nc = a + 1;\nd = b + 1;\nx = c;\ny = x;\nwrite(y);\n"
	id := openSession(t, ts, src)

	// x = c → x = d: the slice on y@7 swaps c = a + 1 (line 3) for
	// d = b + 1 (line 4) and pulls in read(b) (line 2; read(a) stays —
	// the observed-context semantics preserve the input-stream order).
	resp := patchEdit(t, ts, id, "var=y&line=7", 5, "x = d;")
	var pr sessionPatchResponse
	decodeInto(t, resp, http.StatusOK, &pr)
	if pr.Incremental.Outcome == "full" {
		t.Fatalf("same-shape definition-preserving edit ran the full tier: %+v", pr.Incremental)
	}
	if len(pr.LinesAdded) != 2 || pr.LinesAdded[0] != 2 || pr.LinesAdded[1] != 4 {
		t.Errorf("lines_added = %v, want [2 4]", pr.LinesAdded)
	}
	if len(pr.LinesRemoved) != 1 || pr.LinesRemoved[0] != 3 {
		t.Errorf("lines_removed = %v, want [3]", pr.LinesRemoved)
	}
}

// TestSessionSDG: sessions serve algo=sdg. An edit of a program with
// procedures re-analyzes in full, answers exactly what a cold /slice
// of the edited text answers, and reports the line-set delta.
func TestSessionSDG(t *testing.T) {
	_, ts := newTestServer(t)
	id := openSession(t, ts, sdgTestProgram)

	// call add(sum, a) → call add(sum, cnt): the slice on sum@10
	// trades read(a) (line 4) for cnt = 0 (line 7).
	const query = "var=sum&line=10&algo=sdg"
	resp := patchEdit(t, ts, id, query, 8, "call add(sum, cnt);")
	if got := resp.Header.Get("X-Incremental"); got != "full" {
		t.Errorf("X-Incremental = %q, want full", got)
	}
	var pr sessionPatchResponse
	decodeInto(t, resp, http.StatusOK, &pr)
	if fmt.Sprint(pr.LinesAdded) != "[7]" || fmt.Sprint(pr.LinesRemoved) != "[4]" {
		t.Errorf("delta +%v -%v, want +[7] -[4]", pr.LinesAdded, pr.LinesRemoved)
	}
	_, cold := postSlice(t, ts, query, strings.Replace(sdgTestProgram, "call add(sum, a);", "call add(sum, cnt);", 1))
	got := pr.sliceResponse
	got.Request, got.DurationNS, cold.Request, cold.DurationNS = 0, 0, 0, 0
	if !reflect.DeepEqual(got, *cold) {
		t.Errorf("session sdg slice differs from a cold /slice:\n%+v\n%+v", got, *cold)
	}
}

// TestSessionBadRequests covers the request-shape faults around the
// session surface.
func TestSessionBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	id := openSession(t, ts, fig5(t))

	for name, tc := range map[string]struct {
		method, path, body string
		status             int
		code               string
	}{
		"empty open":        {http.MethodPost, "/session", "", http.StatusBadRequest, "bad_request"},
		"get on session":    {http.MethodGet, "/session", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		"missing criterion": {http.MethodPatch, "/session/" + id, `{"edit":{"op":"replace","line":4,"text":"x = 1;"}}`, http.StatusBadRequest, "bad_request"},
		"unknown session":   {http.MethodPatch, "/session/nope?var=positives&line=14", `{"edit":{"op":"replace","line":4,"text":"x = 1;"}}`, http.StatusNotFound, "unknown_session"},
		"nested path":       {http.MethodPatch, "/session/a/b?var=x&line=1", "{}", http.StatusNotFound, "not_found"},
		"bad op":            {http.MethodPatch, "/session/" + id + "?var=positives&line=14", `{"edit":{"op":"insert","line":4,"text":"x = 1;"}}`, http.StatusBadRequest, "bad_request"},
		"both forms":        {http.MethodPatch, "/session/" + id + "?var=positives&line=14", `{"source":"x = 1;","edit":{"op":"replace","line":4,"text":"x = 1;"}}`, http.StatusBadRequest, "bad_request"},
		"empty patch":       {http.MethodPatch, "/session/" + id + "?var=positives&line=14", `{}`, http.StatusBadRequest, "bad_request"},
		"bad explain":       {http.MethodPatch, "/session/" + id + "?var=positives&line=14&explain=nope", `{"edit":{"op":"replace","line":4,"text":"x = 1;"}}`, http.StatusUnprocessableEntity, "invalid_parameter"},
		"delete unknown":    {http.MethodDelete, "/session/nope", "", http.StatusNotFound, "unknown_session"},
	} {
		t.Run(name, func(t *testing.T) {
			resp := do(t, tc.method, ts.URL+tc.path, "application/json", tc.body)
			expectAPIError(t, resp, tc.status, tc.code)
		})
	}
}

// TestPatchJSONWithoutContentType pins the curl -d reality: JSON
// bodies routinely arrive under application/x-www-form-urlencoded (or
// no content type at all) and must still be decoded as JSON, not
// mistaken for a full-source replacement — a brace-opened valid-JSON
// object is never valid program text, so the sniff is unambiguous.
func TestPatchJSONWithoutContentType(t *testing.T) {
	_, ts := newTestServer(t)
	id := openSession(t, ts, fig5(t))

	for _, ct := range []string{"", "application/x-www-form-urlencoded"} {
		resp := do(t, http.MethodPatch, ts.URL+"/session/"+id+"?var=positives&line=14",
			ct, `{"edit":{"op":"replace","line":2,"text":"positives = 1;"}}`)
		var pr sessionPatchResponse
		decodeInto(t, resp, http.StatusOK, &pr)
		if got := resp.Header.Get("X-Incremental"); got != "patched" {
			t.Errorf("content type %q: X-Incremental = %q, want patched", ct, got)
		}
	}

	// A raw program under a non-JSON content type is still a full
	// source replacement.
	resp := do(t, http.MethodPatch, ts.URL+"/session/"+id+"?var=x&line=2",
		"text/plain", "read(x);\nwrite(x);\n")
	var pr sessionPatchResponse
	decodeInto(t, resp, http.StatusOK, &pr)
	if got := resp.Header.Get("X-Incremental"); got != "full" {
		t.Errorf("raw replacement: X-Incremental = %q, want full", got)
	}

	// Same sniff on POST /session: a JSON open without the header.
	resp = do(t, http.MethodPost, ts.URL+"/session", "",
		`{"source":"read(a);\nwrite(a);\n"}`)
	var sr sessionResponse
	decodeInto(t, resp, http.StatusCreated, &sr)
	if sr.Statements != 2 {
		t.Errorf("JSON open parsed %d statements, want 2", sr.Statements)
	}
}

// TestSessionPatchIsNotAnEviction: a PATCH stores the edited analysis
// under the session's key, replacing the previous one. That is a
// removal, not an eviction — with the cache nowhere near its budget,
// /debug/cache and /metrics must report no evictions after three
// edits.
func TestSessionPatchIsNotAnEviction(t *testing.T) {
	_, ts := newTestServer(t)
	id := openSession(t, ts, fig5(t))
	for i := 1; i <= 3; i++ {
		resp := patchEdit(t, ts, id, "var=positives&line=14", 2, fmt.Sprintf("positives = %d;", i))
		decodeInto(t, resp, http.StatusOK, nil)
	}

	resp := do(t, http.MethodGet, ts.URL+"/debug/cache", "", "")
	var state struct {
		Stats slicecache.Stats `json:"stats"`
	}
	decodeInto(t, resp, http.StatusOK, &state)
	if state.Stats.Evictions != 0 || state.Stats.Entries != 1 {
		t.Errorf("after 3 PATCHes: evictions %d, entries %d; want 0 and 1", state.Stats.Evictions, state.Stats.Entries)
	}
	mresp := do(t, http.MethodGet, ts.URL+"/metrics", "", "")
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	if m := regexp.MustCompile(`jumpslice_cache_evictions_total (\d+)`).FindSubmatch(metrics); m == nil || string(m[1]) != "0" {
		t.Errorf("want jumpslice_cache_evictions_total 0 in /metrics:\n%s", metrics)
	}
}
