package main

import (
	"fmt"
	"math/rand"
	"net/http"
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
	if line < 1 || line > len(lines) || (line == len(lines) && lines[line-1] == "") {
		return "", fmt.Errorf("edit line %d outside the program (1..%d)", line, strings.Count(source, "\n"))
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
		got, err := req.apply(tc.source)
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
