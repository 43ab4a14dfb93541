package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"jumpslice/internal/baselines"
	"jumpslice/internal/core"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// referenceJSON is what the serving path sent before the appender:
// encoding/json with two-space indentation.
func referenceJSON(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// wireSlice is the slice response in the plain form encoding/json
// encodes, as the daemon sent it before the appender rendered explain
// members from a provenance: the reference for the appender, and what
// tests decode responses into.
type wireSlice struct {
	Request    uint64           `json:"request"`
	Algorithm  string           `json:"algorithm"`
	Var        string           `json:"var"`
	Line       int              `json:"line"`
	Lines      []int            `json:"lines"`
	JumpLines  []int            `json:"jump_lines,omitempty"`
	Traversals int              `json:"traversals,omitempty"`
	Text       string           `json:"text"`
	Reasons    map[int][]string `json:"reasons,omitempty"`
	Listing    string           `json:"listing,omitempty"`
	DurationNS int64            `json:"duration_ns"`
}

// wirePatch is sessionPatchResponse in plain form.
type wirePatch struct {
	wireSlice
	Session      string          `json:"session"`
	Incremental  *core.IncrStats `json:"incremental"`
	LinesAdded   []int           `json:"lines_added"`
	LinesRemoved []int           `json:"lines_removed"`
}

// wireOf is r in plain form: its provenance as LineReasons and
// Listing.
func wireOf(r *sliceResponse) wireSlice {
	w := wireSlice{
		Request: r.Request, Algorithm: r.Algorithm, Var: r.Var, Line: r.Line, Lines: r.Lines,
		JumpLines: r.JumpLines, Traversals: r.Traversals, Text: r.Text, DurationNS: r.DurationNS,
	}
	if r.Provenance != nil {
		w.Reasons, w.Listing = r.Provenance.LineReasons(), r.Provenance.Listing()
	}
	return w
}

// reference is encoding/json's rendering of v, through the plain form
// for the slice responses.
func reference(t testing.TB, v jsonResponse) []byte {
	t.Helper()
	switch v := v.(type) {
	case *sliceResponse:
		return referenceJSON(t, wireOf(v))
	case *sessionPatchResponse:
		return referenceJSON(t, wirePatch{wireOf(&v.sliceResponse), v.Session, v.Incremental, v.LinesAdded, v.LinesRemoved})
	}
	return referenceJSON(t, v)
}

func appended(v jsonResponse) []byte {
	rec := httptest.NewRecorder()
	writeResponse(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// stringPieces covers every escape class of encoding/json's string
// encoder: HTML characters, quotes and backslashes, the short and the
// \u00XX control escapes, DEL, the JavaScript line separators,
// invalid and truncated UTF-8, and valid multi-byte runes.
var stringPieces = []string{
	"", "x", "write(positives);", " ", "<", ">", "&", "&&", `"`, `\`, "/",
	"\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f",
	"\u2028", "\u2029", "\u2027", "\u202a", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80",
	"\u00e9", "\u65e5\u672c", "\U0001F600", "\ufffd",
}

func randString(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(6); n > 0; n-- {
		b = append(b, stringPieces[rng.Intn(len(stringPieces))]...)
	}
	return string(b)
}

// randInts returns nil, an empty slice or a few ints, negative and
// multi-digit ones included.
func randInts(rng *rand.Rand) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, rng.Intn(5)+1)
	for i := range out {
		out[i] = randInt(rng)
	}
	return out
}

func randInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(10)
	case 1:
		return -rng.Intn(1000)
	case 2:
		return rng.Intn(100000)
	}
	return rng.Int() - rng.Int()
}

func randStrings(rng *rand.Rand) []string {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, rng.Intn(3)+1)
	for i := range out {
		out[i] = randString(rng)
	}
	return out
}

func randSliceResponse(t testing.TB, rng *rand.Rand) sliceResponse {
	r := sliceResponse{
		Request:    rng.Uint64() >> uint(rng.Intn(64)),
		Algorithm:  randString(rng),
		Var:        randString(rng),
		Line:       randInt(rng),
		Lines:      randInts(rng),
		JumpLines:  randInts(rng),
		Traversals: randInt(rng) * rng.Intn(2),
		Text:       randString(rng),
		DurationNS: int64(randInt(rng)),
	}
	if ps := paperProvenances(t); rng.Intn(2) == 0 {
		r.Provenance = ps[rng.Intn(len(ps))]
	}
	return r
}

var paperProvs struct {
	once  sync.Once
	provs []*core.Provenance
}

// paperProvenances returns the provenance of the last write criterion
// of each of the paper's figures, under each intraprocedural
// algorithm that slices it. Reason texts and listings come only from
// provenances, so these are the values the appender's explain members
// take; the adversarial strings reach the same escaper through
// TestAppendJSONStringBytes.
func paperProvenances(t testing.TB) []*core.Provenance {
	paperProvs.once.Do(func() {
		for _, f := range paper.All() {
			prog, err := lang.Parse(f.Source)
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.Analyze(prog)
			if err != nil {
				t.Fatal(err)
			}
			crits := progen.WriteCriteria(prog)
			c := crits[len(crits)-1]
			for _, algo := range knownAlgos[:len(knownAlgos)-1] {
				sl, err := baselines.Slice(a, algo, core.Criterion{Var: c.Var, Line: c.Line})
				if err != nil {
					continue // Figures 12 and 13 refuse unstructured jumps
				}
				p, err := sl.Explain()
				if err != nil {
					t.Fatal(err)
				}
				paperProvs.provs = append(paperProvs.provs, p)
			}
		}
	})
	return paperProvs.provs
}

func randIncrStats(rng *rand.Rand) *core.IncrStats {
	if rng.Intn(4) == 0 {
		return nil
	}
	st := &core.IncrStats{
		Outcome:          randString(rng),
		PhasesReused:     randInt(rng),
		PhasesRecomputed: randInt(rng),
		Fallback:         randString(rng),
	}
	switch rng.Intn(3) {
	case 1:
		st.Edits = []incremental.Edit{}
	case 2:
		for n := rng.Intn(3) + 1; n > 0; n-- {
			st.Edits = append(st.Edits, incremental.Edit{Op: incremental.Op(rng.Intn(5) - 1), Line: randInt(rng), Text: randString(rng)})
		}
	}
	return st
}

// TestAppenderMatchesEncodingJSON compares the appender with
// encoding/json on random responses built from adversarial values.
func TestAppenderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		var v jsonResponse
		switch i % 4 {
		case 0:
			r := randSliceResponse(t, rng)
			v = &r
		case 1:
			v = &sessionPatchResponse{
				sliceResponse: randSliceResponse(t, rng),
				Session:       randString(rng),
				Incremental:   randIncrStats(rng),
				LinesAdded:    randInts(rng),
				LinesRemoved:  randInts(rng),
			}
		case 2:
			v = &sessionResponse{
				Session:    randString(rng),
				Request:    rng.Uint64() >> uint(rng.Intn(64)),
				Statements: randInt(rng) * rng.Intn(2),
				Deleted:    rng.Intn(2) == 0,
			}
		case 3:
			v = &apiError{Error: errorBody{
				Code:      randString(rng),
				Message:   randString(rng),
				Status:    randInt(rng),
				RequestID: rng.Uint64() >> uint(rng.Intn(64)),
			}}
		}
		if got, want := appended(v), reference(t, v); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%T): appender\n%s\nencoding/json\n%s", i, v, got, want)
		}
	}
}

// TestAppendJSONStringBytes: reason texts and the listing are
// appended from bytes, and escape exactly as strings do.
func TestAppendJSONStringBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		s := randString(rng)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("%q: appended %s, encoding/json %s", s, got, want)
		}
	}
}

// TestCompareLines pins the reason-key order: decimal strings, so
// "10" < "100" < "9", computed without formatting.
func TestCompareLines(t *testing.T) {
	for _, c := range []struct{ a, b, want int }{
		{9, 10, 1}, {10, 9, -1}, {100, 10, 1}, {1, 1, 0}, {99, 100, 1}, {100, 99, -1},
	} {
		if got := compareLines(c.a, c.b); got != c.want {
			t.Errorf("compareLines(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// The 9/10/99/100 boundaries and their neighbours, pairwise.
	lines := []int{1, 2, 9, 10, 11, 19, 20, 90, 99, 100, 101, 109, 110, 990, 999, 1000, 1001, 12345}
	for _, a := range lines {
		for _, b := range lines {
			if got, want := compareLines(a, b), strings.Compare(strconv.Itoa(a), strconv.Itoa(b)); got != want {
				t.Errorf("compareLines(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// explainResponse renders the explain response /slice sends for the
// last write criterion of a 120-statement generated program.
func explainResponse(t testing.TB) *sliceResponse {
	t.Helper()
	prog, err := lang.Parse(lang.Format(progen.Structured(progen.Config{Seed: 1, Stmts: 120}), lang.PrintOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	crits := progen.WriteCriteria(prog)
	c := crits[len(crits)-1]
	a, err := core.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(testConfig(), io.Discard)
	rec := httptest.NewRecorder()
	resp, _ := s.renderSlice(rec, httptest.NewRequest("POST", "/slice", nil), a, "agrawal", core.Criterion{Var: c.Var, Line: c.Line}, true)
	if resp == nil || resp.Provenance == nil || len(resp.Provenance.LineReasons()) < 10 {
		t.Fatalf("no explain response: %s", rec.Body.Bytes())
	}
	resp.Request, resp.DurationNS = 123456, 987654321
	return resp
}

// discardResponse is a ResponseWriter that keeps one header map and
// drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestWriteResponseAllocs bounds the allocations of sending an
// explain response: the buffer, the key scratch and the rendering are
// pooled and the line texts memoized, so what remains is the
// Content-Type header value.
func TestWriteResponseAllocs(t *testing.T) {
	resp := explainResponse(t)
	if got, want := appended(resp), reference(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("appender\n%s\nencoding/json\n%s", got, want)
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	w := &discardResponse{h: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() { writeResponse(w, http.StatusOK, resp) })
	if allocs > 2 {
		t.Errorf("writeResponse of an explain response: %.0f allocations, want <= 2", allocs)
	}
}

// BenchmarkWriteSliceResponse sends the explain response of a
// 120-statement program through the appender and, for comparison,
// through encoding/json as the serving path used to.
func BenchmarkWriteSliceResponse(b *testing.B) {
	resp := explainResponse(b)
	w := &discardResponse{h: http.Header{}}
	b.Run("appender", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeResponse(w, http.StatusOK, resp)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, resp)
		}
	})
}

// TestWriteResponseConcurrent: goroutines sharing the encoder pool
// each get their own buffer, so concurrent responses never mix.
func TestWriteResponseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	resps := make([]*sliceResponse, 8)
	want := make([][]byte, len(resps))
	for i := range resps {
		r := randSliceResponse(t, rng)
		resps[i], want[i] = &r, reference(t, &r)
	}
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if got := appended(resps[i]); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d: response differs from encoding/json", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
