package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// TestProvenanceMembersMatchEncodingJSON: over the digest corpus and
// a set of generated procedure programs (sdg), the explain members
// the appender renders from a provenance decode to exactly
// LineReasons and Listing, and the whole response is byte-equal to
// encoding/json's rendering of those values.
func TestProvenanceMembersMatchEncodingJSON(t *testing.T) {
	corpus := responseCorpus()
	sets := 30
	if testing.Short() {
		sets = 6
	}
	for seed := int64(1); seed <= int64(sets); seed++ {
		p := progen.MultiProc(progen.Config{Seed: seed, Stmts: 60})
		corpus[fmt.Sprintf("multiproc-60-%d", seed)] = lang.Format(p, lang.PrintOptions{})
	}
	s := newServer(testConfig(), io.Discard)
	checked := 0
	for name, src := range corpus {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		crits, algo := progen.WriteCriteria(prog), "agrawal"
		if len(prog.Procs) > 0 {
			crits, algo = progen.MainWriteCriteria(prog), "sdg"
		}
		for _, c := range crits {
			rec := httptest.NewRecorder()
			resp, _ := s.renderSlice(rec, httptest.NewRequest("POST", "/slice", nil), a, algo, core.Criterion{Var: c.Var, Line: c.Line}, true)
			if resp == nil {
				t.Fatalf("%s %v: %s", name, c, rec.Body.Bytes())
			}
			got := appended(resp)
			if want := reference(t, resp); !bytes.Equal(got, want) {
				t.Fatalf("%s %v: appender\n%s\nencoding/json\n%s", name, c, got, want)
			}
			var w wireSlice
			if err := json.Unmarshal(got, &w); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(w.Reasons, resp.Provenance.LineReasons()) || w.Listing != resp.Provenance.Listing() {
				t.Fatalf("%s %v: decoded explain members differ from LineReasons and Listing", name, c)
			}
			checked++
		}
	}
	t.Logf("%d explain responses over %d programs", checked, len(corpus))
}

// recordDo sends one /slice request with request ID id straight to the
// route mux.
func recordDo(s *server, target, src string, id uint64) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, target, strings.NewReader(src))
	r = r.WithContext(context.WithValue(r.Context(), reqIDKey, id))
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, r)
	return rec
}

var stampedFields = regexp.MustCompile(`"(request|duration_ns)": [0-9]+`)

// unstamped zeroes a body's request and duration_ns.
func unstamped(body []byte) string {
	return stampedFields.ReplaceAllString(string(body), `"$1": 0`)
}

const recordTarget = "/slice?var=positives&line=14&algo=agrawal&explain=1"

// TestResultRecordReplays: the stored record is the response with
// request and duration_ns zeroed, behind the program's statement
// count, and a result hit sends it stamped with this request's ID and
// duration, without decoding it.
func TestResultRecordReplays(t *testing.T) {
	s := digestServer()
	src := fig5(t)
	first := recordDo(s, recordTarget, src, 7)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.Bytes())
	}
	rkey := resultKeyFor(&sliceRequest{Source: src, Var: "positives", Line: 14, Algo: "agrawal"}, true)
	data, _ := s.results.Get(rkey)
	if !isRecord(data) || string(recordBody(data)) != unstamped(first.Body.Bytes()) {
		t.Fatalf("stored record is not the zeroed response:\n%s", data)
	}
	if got, want := recordStmts(data), statementsOf(t, src); got != want {
		t.Errorf("recordStmts = %d, want %d", got, want)
	}
	second := recordDo(s, recordTarget, src, 8)
	if tier := second.Header().Get("X-Cache"); tier != "result" {
		t.Fatalf("repeat X-Cache = %q, want result", tier)
	}
	var w wireSlice
	if err := json.Unmarshal(second.Body.Bytes(), &w); err != nil {
		t.Fatal(err)
	}
	if w.Request != 8 || w.DurationNS <= 0 {
		t.Errorf("replay stamped request %d, duration_ns %d; want 8 and a positive duration", w.Request, w.DurationNS)
	}
	if unstamped(second.Body.Bytes()) != string(recordBody(data)) {
		t.Errorf("replay differs from the record beyond the stamps:\n%s", second.Body.Bytes())
	}
	if got := recordLines(recordBody(data)); got != len(w.Lines) {
		t.Errorf("recordLines = %d, want %d", got, len(w.Lines))
	}
}

// TestResultReplayMatchesComputed: for every paper figure under every
// algorithm, with and without explain, an identical repeat is
// answered from the result tier with the computed response's bytes,
// request and duration_ns aside. A refused tuple is never stored: its
// repeat is refused again.
func TestResultReplayMatchesComputed(t *testing.T) {
	s := newServer(testConfig(), io.Discard)
	id, replays := uint64(0), 0
	for _, f := range paper.All() {
		for _, algo := range knownAlgos {
			for _, explain := range []string{"0", "1"} {
				target := fmt.Sprintf("/slice?var=%s&line=%d&algo=%s&explain=%s", f.Criterion.Var, f.Criterion.Line, algo, explain)
				id += 2
				computed := recordDo(s, target, f.Source, id-1)
				replayed := recordDo(s, target, f.Source, id)
				what := f.Name + " " + target
				if computed.Code != http.StatusOK {
					if replayed.Code != computed.Code || replayed.Header().Get("X-Cache") == "result" {
						t.Errorf("%s: refused %d, then %d from %q", what, computed.Code, replayed.Code, replayed.Header().Get("X-Cache"))
					}
					continue
				}
				if got := replayed.Header().Get("X-Cache"); got != "result" {
					t.Errorf("%s: repeat X-Cache = %q, want result", what, got)
				}
				if unstamped(replayed.Body.Bytes()) != unstamped(computed.Body.Bytes()) {
					t.Errorf("%s: replay\n%s\ncomputed\n%s", what, replayed.Body.Bytes(), computed.Body.Bytes())
				}
				replays++
			}
		}
	}
	if replays == 0 {
		t.Fatal("no tuple was answered")
	}
	t.Logf("%d replays of %d tuples", replays, id/2)
}

// TestWideEventStmtsAfterDiskReopen: a disk hit on a reopened daemon
// logs the program's statement count, which the record carries, not
// 0.
func TestWideEventStmtsAfterDiskReopen(t *testing.T) {
	dir := t.TempDir()
	src := fig5(t)
	const query = "var=positives&line=14"
	_, ts, stop := bootDisk(t, dir, 0)
	postSlice(t, ts, query, src)
	stop()

	_, ts, stop = bootDisk(t, dir, 0)
	defer stop()
	if resp, _ := postSlice(t, ts, query, src); resp.Header.Get("X-Cache") != "disk" {
		t.Fatalf("post-reopen X-Cache = %q, want disk", resp.Header.Get("X-Cache"))
	}
	page := getRequests(t, ts.URL, "?endpoint=/slice")
	if page.Count != 1 {
		t.Fatalf("slice events: %+v", page)
	}
	if ev, want := page.Requests[0], statementsOf(t, src); ev.Cache != "disk" || ev.Stmts != want || ev.SliceLines == 0 {
		t.Errorf("disk hit event: cache %q stmts %d slice %d, want disk, %d, nonzero", ev.Cache, ev.Stmts, ev.SliceLines, want)
	}
}

// TestRecordLines counts the lines array of records whose lines are
// null, empty and several.
func TestRecordLines(t *testing.T) {
	for _, lines := range [][]int{nil, {}, {3}, {1, 10, 100}} {
		data := appendRecord(&sliceResponse{Algorithm: "a", Var: "lines", Lines: lines, Text: "lines: [\n"}, 7)
		if got := recordLines(recordBody(data)); got != len(lines) {
			t.Errorf("lines %v: recordLines = %d", lines, got)
		}
	}
}

// TestResultRecordRecomputed: a stored record that is torn (a write
// cut short) or compact JSON (the layout earlier daemons stored) is
// not served; the request is computed and the record overwritten.
func TestResultRecordRecomputed(t *testing.T) {
	src := fig5(t)
	rkey := resultKeyFor(&sliceRequest{Source: src, Var: "positives", Line: 14, Algo: "agrawal"}, true)
	for name, spoil := range map[string]func(t *testing.T, rec []byte) []byte{
		"torn": func(t *testing.T, rec []byte) []byte { return rec[:len(rec)/2] },
		"compact": func(t *testing.T, rec []byte) []byte {
			var w wireSlice
			if err := json.Unmarshal(recordBody(rec), &w); err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(&w)
			if err != nil {
				t.Fatal(err)
			}
			return append(rec[:stmtsWidth:stmtsWidth], out...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := digestServer()
			first := recordDo(s, recordTarget, src, 7)
			rec, _ := s.results.Get(rkey)
			s.results.Put(rkey, spoil(t, rec))
			again := recordDo(s, recordTarget, src, 9)
			if again.Code != http.StatusOK {
				t.Fatalf("status %d: %s", again.Code, again.Body.Bytes())
			}
			if tier := again.Header().Get("X-Cache"); tier == "result" {
				t.Fatal("a spoiled record was served")
			}
			if unstamped(again.Body.Bytes()) != unstamped(first.Body.Bytes()) {
				t.Fatalf("recomputed response differs:\n%s", again.Body.Bytes())
			}
			if data, _ := s.results.Get(rkey); !bytes.Equal(data, rec) {
				t.Fatalf("record not overwritten:\n%s", data)
			}
		})
	}
}

// statementsOf parses src and returns its statement count.
func statementsOf(t *testing.T, src string) int {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return lang.CountStatements(prog)
}
