package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"jumpslice/internal/baselines"
	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// applyBySplit is patchRequest.apply's one-line replacement as first
// written, splitting and re-joining the whole document: the reference
// the byte-offset version must agree with.
func applyBySplit(source string, line int, text string) (string, error) {
	lines := strings.Split(source, "\n")
	n := len(lines)
	if lines[n-1] == "" {
		n-- // a final newline ends the last line, it starts none
	}
	if line < 1 || line > n {
		return "", fmt.Errorf("edit line %d outside the program (1..%d)", line, n)
	}
	lines[line-1] = text
	return strings.Join(lines, "\n"), nil
}

// TestPatchApplyMatchesSplit pins which lines a one-line edit accepts,
// what it produces, and its error text, to the split-and-join
// behaviour.
func TestPatchApplyMatchesSplit(t *testing.T) {
	for _, tc := range []struct {
		name, source string
		line         int
		want         string // "" means rejected
	}{
		{"empty source", "", 1, ""},
		{"empty source line 0", "", 0, ""},
		{"trailing newline: first line", "a;\nb;\n", 1, "X\nb;\n"},
		{"trailing newline: last line", "a;\nb;\n", 2, "a;\nX\n"},
		{"trailing newline: one past the end", "a;\nb;\n", 3, ""},
		{"line 0", "a;\nb;\n", 0, ""},
		{"negative line", "a;\nb;\n", -1, ""},
		{"no final newline: last line", "a;\nb;", 2, "a;\nX"},
		{"no final newline: one past the end", "a;\nb;", 3, ""},
		{"far past the end", "a;\nb;\n", 99, ""},
		{"empty middle line", "a;\n\nb;\n", 2, "a;\nX\nb;\n"},
		{"blank lines at the end", "a;\n\n\n", 3, "a;\n\nX\n"},
		{"only a newline", "\n", 1, "X\n"},
		{"only a newline: one past the end", "\n", 2, ""},
		{"single line without newline", "a;", 1, "X"},
	} {
		req := &patchRequest{Edit: &editRequest{Op: "replace", Line: tc.line, Text: "X"}}
		got, _, err := req.apply(tc.source)
		ref, refErr := applyBySplit(tc.source, tc.line, "X")
		if (err == nil) != (refErr == nil) || got != ref {
			t.Errorf("%s: apply = %q, %v; split = %q, %v", tc.name, got, err, ref, refErr)
		}
		if err != nil && err.Error() != refErr.Error() {
			t.Errorf("%s: error %q, split's %q", tc.name, err, refErr)
		}
		if tc.want == "" && err == nil {
			t.Errorf("%s: accepted line %d, want rejected", tc.name, tc.line)
		}
		if tc.want != "" && got != tc.want {
			t.Errorf("%s: apply = %q (err %v), want %q", tc.name, got, err, tc.want)
		}
	}
}

// TestPatchOutOfRangeCountsLines pins the line count an out-of-range
// edit reports: the program's lines, with or without a final newline.
func TestPatchOutOfRangeCountsLines(t *testing.T) {
	for _, tc := range []struct {
		source string
		line   int
		want   string
	}{
		{"x = 1;\nwrite(x);", 3, "edit line 3 outside the program (1..2)"},
		{"x = 1;\nwrite(x);\n", 3, "edit line 3 outside the program (1..2)"},
		{"x = 1;", 0, "edit line 0 outside the program (1..1)"},
		{"x = 1;\n", 2, "edit line 2 outside the program (1..1)"},
		{"x = 1;\n\n", 3, "edit line 3 outside the program (1..2)"},
		{"\n", 2, "edit line 2 outside the program (1..1)"},
		{"", 1, "edit line 1 outside the program (1..0)"},
	} {
		req := &patchRequest{Edit: &editRequest{Op: "replace", Line: tc.line, Text: "X"}}
		if _, _, err := req.apply(tc.source); err == nil || err.Error() != tc.want {
			t.Errorf("apply(%q) line %d: error %v, want %q", tc.source, tc.line, err, tc.want)
		}
	}
}

// recomputedDelta is the delta a PATCH must report: the post-edit
// slice against prev re-sliced for the same algorithm and criterion
// (none when prev is gone or cannot resolve the criterion).
func recomputedDelta(t *testing.T, prev, cur *core.Analysis, algo string, crit core.Criterion) (added, removed []int) {
	t.Helper()
	if prev == nil {
		return nil, nil
	}
	if algo == "sdg" {
		interLines := func(a *core.Analysis) ([]int, error) {
			ps, err := a.ProgramSet()
			if err != nil {
				return nil, err
			}
			is, err := ps.SliceInterproc(crit)
			if err != nil {
				return nil, err
			}
			return is.Lines(), nil
		}
		lines, err := interLines(cur)
		if err != nil {
			t.Fatalf("post-edit sdg slice: %v", err)
		}
		old, err := interLines(prev)
		if err != nil {
			return nil, nil
		}
		return missingLines(lines, old), missingLines(old, lines)
	}
	sl, err := baselines.Slice(cur, algo, crit)
	if err != nil {
		t.Fatalf("post-edit %s slice: %v", algo, err)
	}
	psl, err := baselines.Slice(prev, algo, crit)
	if err != nil || psl.Nodes.Cap() != sl.Nodes.Cap() {
		return nil, nil
	}
	return deltaLines(sl.Nodes.Diff(psl.Nodes), cur), deltaLines(psl.Nodes.Diff(sl.Nodes), prev)
}

var deltaAssignRE = regexp.MustCompile(`^(\s*(?:[A-Za-z_]\w*:\s*)?)([A-Za-z_]\w*) = (.*);$`)

// TestSessionDeltaMatchesRecomputed drives sessions through random
// PATCH sequences that switch algorithm (agrawal, the conventional
// baseline, sdg) and criterion between edits, and mix in rejected
// edits, criteria that do not resolve, full-source swaps and evicted
// analyses. Every delta a session reports from the slice it
// remembers must equal the delta against its previous analysis
// re-sliced.
func TestSessionDeltaMatchesRecomputed(t *testing.T) {
	s, ts := newTestServer(t)
	algos := []string{"agrawal", "conventional", "sdg"}
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	kinds := map[string]int{}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		gen := progen.Structured
		if seed%2 == 1 {
			gen = progen.Unstructured
		}
		src := lang.Format(gen(progen.Config{Seed: int64(seed), Stmts: 40}), lang.PrintOptions{})
		var crits []core.Criterion
		for _, c := range progen.WriteCriteria(lang.MustParse(src)) {
			crits = append(crits, core.Criterion{Var: c.Var, Line: c.Line})
		}
		if len(crits) < 2 {
			t.Fatalf("seed %d: %d write criteria", seed, len(crits))
		}
		id := openSession(t, ts, src)
		key := slicecache.SessionKey(id)
		algo, crit := algos[0], crits[0]
		for step := 0; step < 40; step++ {
			// Half the steps keep the previous algorithm and criterion,
			// so the remembered slice is used as often as it is not.
			if rng.Intn(2) == 0 {
				algo, crit = algos[rng.Intn(len(algos))], crits[rng.Intn(len(crits))]
			}
			query := fmt.Sprintf("var=%s&line=%d&algo=%s", crit.Var, crit.Line, algo)
			lines := strings.Split(src, "\n")
			var assigns []int
			for i, l := range lines {
				if deltaAssignRE.MatchString(l) {
					assigns = append(assigns, i)
				}
			}
			at := assigns[rng.Intn(len(assigns))]
			m := deltaAssignRE.FindStringSubmatch(lines[at])
			// An expression edit, or a definition moved to the target of
			// another assignment.
			text := fmt.Sprintf("%s%s = %s + 1;", m[1], m[2], m[3])
			if rng.Intn(2) == 0 {
				other := deltaAssignRE.FindStringSubmatch(lines[assigns[rng.Intn(len(assigns))]])
				text = fmt.Sprintf("%s%s = %s;", m[1], other[2], m[3])
			}
			kind := []string{"edit", "edit", "edit", "rejected", "unresolvable", "swap", "evicted"}[rng.Intn(7)]
			kinds[kind]++
			if kind == "evicted" {
				s.cache.DeleteKey(key)
			}
			prev, _ := s.cache.GetKey(key)
			var resp *http.Response
			newSrc := src
			switch kind {
			case "rejected":
				resp = patchEdit(t, ts, id, query, at+1, "= broken")
			case "unresolvable":
				resp = patchEdit(t, ts, id, fmt.Sprintf("var=%s&line=99999&algo=%s", crit.Var, algo), at+1, text)
				newSrc = strings.Join(slices.Concat(lines[:at], []string{text}, lines[at+1:]), "\n")
			case "swap":
				// The edit and one more statement at the end: a new shape.
				newSrc = strings.Join(slices.Concat(lines[:at], []string{text}, lines[at+1:]), "\n") + "write(" + m[2] + ");\n"
				resp = do(t, http.MethodPatch, ts.URL+"/session/"+id+"?"+query, "text/plain", newSrc)
			default:
				resp = patchEdit(t, ts, id, query, at+1, text)
				newSrc = strings.Join(slices.Concat(lines[:at], []string{text}, lines[at+1:]), "\n")
			}
			ctxt := fmt.Sprintf("seed %d step %d (%s, %s %v)", seed, step, kind, algo, crit)
			switch kind {
			case "rejected":
				expectAPIError(t, resp, http.StatusUnprocessableEntity, "invalid_program")
				continue // the session is as it was
			case "unresolvable":
				if resp.StatusCode == http.StatusOK {
					t.Fatalf("%s: criterion at line 99999 resolved", ctxt)
				}
				resp.Body.Close()
				src = newSrc // committed all the same
				continue
			}
			var pr sessionPatchResponse
			decodeInto(t, resp, http.StatusOK, &pr)
			src = newSrc
			cur, ok := s.cache.GetKey(key)
			if !ok {
				t.Fatalf("%s: session analysis not resident after the PATCH", ctxt)
			}
			added, removed := recomputedDelta(t, prev, cur, algo, crit)
			if !slices.Equal(pr.LinesAdded, added) || !slices.Equal(pr.LinesRemoved, removed) {
				t.Fatalf("%s: delta +%v -%v, re-slicing the previous analysis gives +%v -%v",
					ctxt, pr.LinesAdded, pr.LinesRemoved, added, removed)
			}
		}
	}
	for _, k := range []string{"edit", "rejected", "unresolvable", "swap", "evicted"} {
		if kinds[k] == 0 {
			t.Errorf("no %s step ran (%v)", k, kinds)
		}
	}
}

// perRequestFields matches the fields a reused PATCH body may differ in
// from a fresh session's: the request, its duration and the session.
var perRequestFields = regexp.MustCompile(`"(request|duration_ns|session)": ("\d+"|\d+)`)

// TestSessionReusedSliceMatchesFresh drives sessions through random
// one-line edits under the five core slicers. Every PATCH a session
// answers from the slice it served last (incr.slices_reused counts
// one) must be, byte for byte apart from request, duration_ns and
// session, the body a fresh session on the same source gives for the
// same edit, which has no slice to reuse. Both carry X-Cache and
// X-Incremental.
func TestSessionReusedSliceMatchesFresh(t *testing.T) {
	s, ts := newTestServer(t)
	algos := []string{"agrawal", "agrawal-lst", "structured", "conservative", "conventional"}
	reused := s.reg.Counter("incr.slices_reused")
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	perAlgo := map[string]int{}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		gen := progen.Structured
		if seed%2 == 1 {
			gen = progen.Unstructured
		}
		src := lang.Format(gen(progen.Config{Seed: int64(seed), Stmts: 40}), lang.PrintOptions{})
		var crits []core.Criterion
		for _, c := range progen.WriteCriteria(lang.MustParse(src)) {
			crits = append(crits, core.Criterion{Var: c.Var, Line: c.Line})
		}
		id := openSession(t, ts, src)
		algo, crit := algos[0], crits[0]
		for step := 0; step < 40; step++ {
			if rng.Intn(4) == 0 {
				algo, crit = algos[rng.Intn(len(algos))], crits[rng.Intn(len(crits))]
			}
			query := fmt.Sprintf("var=%s&line=%d&algo=%s", crit.Var, crit.Line, algo)
			lines := strings.Split(src, "\n")
			var assigns []int
			for i, l := range lines {
				if deltaAssignRE.MatchString(l) {
					assigns = append(assigns, i)
				}
			}
			at := assigns[rng.Intn(len(assigns))]
			m := deltaAssignRE.FindStringSubmatch(lines[at])
			text := fmt.Sprintf("%s%s = %s + 1;", m[1], m[2], m[3])
			if rng.Intn(2) == 0 {
				other := deltaAssignRE.FindStringSubmatch(lines[assigns[rng.Intn(len(assigns))]])
				text = fmt.Sprintf("%s%s = %s;", m[1], other[2], m[3])
			}
			before := reused.Value()
			got, status, headers := patchBody(t, ts, id, query, at+1, text)
			if status != http.StatusOK {
				// Figures 12 and 13 refuse unstructured programs; the
				// edit is committed all the same.
				src = strings.Join(slices.Concat(lines[:at], []string{text}, lines[at+1:]), "\n")
				continue
			}
			if reused.Value() != before {
				perAlgo[algo]++
				fresh := openSession(t, ts, src)
				want, _, freshHeaders := patchBody(t, ts, fresh, query, at+1, text)
				if reused.Value() != before+1 {
					t.Fatalf("seed %d step %d: a fresh session reused a slice", seed, step)
				}
				if a, b := perRequestFields.ReplaceAll(got, nil), perRequestFields.ReplaceAll(want, nil); string(a) != string(b) {
					t.Fatalf("seed %d step %d (%s %v, line %d %q): reused body\n%s\nfresh session's\n%s",
						seed, step, algo, crit, at+1, text, got, want)
				}
				for _, h := range []string{"X-Cache", "X-Incremental"} {
					if headers.Get(h) == "" || headers.Get(h) != freshHeaders.Get(h) {
						t.Fatalf("seed %d step %d: reused %s %q, fresh %q", seed, step, h, headers.Get(h), freshHeaders.Get(h))
					}
				}
			}
			src = strings.Join(slices.Concat(lines[:at], []string{text}, lines[at+1:]), "\n")
		}
	}
	t.Logf("reused PATCH bodies per algorithm: %v", perAlgo)
	for _, algo := range algos {
		if perAlgo[algo] == 0 {
			t.Errorf("no %s slice was reused (%v)", algo, perAlgo)
		}
	}
	resp := do(t, http.MethodGet, ts.URL+"/metrics", "", "")
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	if !regexp.MustCompile(`jumpslice_incr_slices_reused_total [1-9]`).Match(metrics) {
		t.Errorf("metrics missing nonzero jumpslice_incr_slices_reused_total")
	}
}

// patchBody PATCHes a one-line edit and returns the body, status and
// headers.
func patchBody(t *testing.T, ts *httptest.Server, id, query string, line int, text string) ([]byte, int, http.Header) {
	t.Helper()
	resp := patchEdit(t, ts, id, query, line, text)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode, resp.Header
}
