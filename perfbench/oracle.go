package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
	"jumpslice/internal/interp"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
)

// oracleInputs are the fixed input streams every generated program and
// its slices run on (the streams the repository's property tests use).
var oracleInputs = [][]int64{nil, {1, 2, 3}, {-5, 7, 0, 2, 9, -1}, {8, 8, -8, 8}}

// oracle collects the output checks of one run. It never gates on a
// property the seed code is known not to have: Agrawal = Ball–Horwitz
// and SDG = inlined Agrawal are counted in the traced ledger instead.
type oracle struct {
	mu       sync.Mutex
	failures []string // first few failure messages
	failed   int
	// figures counts paper figures whose slice matched the paper.
	figures int
	// negativeRejected records that the oracle rejected the
	// Conventional slice of Figure 3.
	negativeRejected bool
	// checked counts slices the interpreter validated; inconclusive
	// counts (slice, input) pairs whose original run exhausted the
	// step budget, which proves nothing either way.
	checked, inconclusive int
	// compared counts daemon responses compared with the library.
	compared int
}

func (o *oracle) failf(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *oracle) count(field *int, n int) {
	o.mu.Lock()
	*field += n
	o.mu.Unlock()
}

// ok reports whether every check passed, all seven figures were
// checked and the negative control was rejected.
func (o *oracle) ok() bool {
	return o.failed == 0 && o.figures == len(paper.All()) && o.negativeRejected
}

// checkFigure compares a slice's lines, obtained through some surface,
// with the hand-written Figure 7 slice of a paper figure.
func (o *oracle) checkFigure(f *paper.Figure, lines []int, surface string) {
	if !reflect.DeepEqual(lines, f.AgrawalLines) {
		o.failf("%s via %s: slice lines %v, paper says %v", f.Name, surface, lines, f.AgrawalLines)
		return
	}
	o.count(&o.figures, 1)
}

// errDiverged reports a slice whose observations differ from the
// original program's.
var errDiverged = errors.New("slice diverges from the original")

// checkSemantics runs the original program (through the flowgraph its
// analysis built) and the materialized slice on every oracle input and
// compares the criterion observations. It returns how many inputs were
// inconclusive (the original run hit the step budget); a slice that
// hits the budget where the original did not is a divergence.
func checkSemantics(orig *cfg.Graph, sliced *lang.Program, c core.Criterion) (inconclusive int, err error) {
	g, err := cfg.Build(sliced)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errDiverged, err)
	}
	observe := func(g *cfg.Graph, in []int64) ([]int64, error) {
		res, err := interp.RunCFG(g, interp.Options{Input: in, ObserveVar: c.Var, ObserveLine: c.Line})
		if err != nil {
			return nil, err
		}
		return res.Observations, nil
	}
	for _, in := range oracleInputs {
		want, err := observe(orig, in)
		if errors.Is(err, interp.ErrStepBudget) {
			inconclusive++
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("running the original: %w", err)
		}
		got, err := observe(g, in)
		if err != nil {
			return 0, fmt.Errorf("%w on input %v: %v", errDiverged, in, err)
		}
		if !reflect.DeepEqual(got, want) {
			return 0, fmt.Errorf("%w on input %v: observed %v, original %v", errDiverged, in, got, want)
		}
	}
	return inconclusive, nil
}

// checkSlice validates one library slice of a's program with the
// interpreter.
func (o *oracle) checkSlice(a *core.Analysis, s *core.Slice, where string) {
	inc, err := checkSemantics(a.CFG, s.Materialize(), s.Criterion)
	if err != nil {
		o.failf("%s %v: %v", where, s.Criterion, err)
		return
	}
	o.mu.Lock()
	o.checked++
	o.inconclusive += inc
	o.mu.Unlock()
}

// negativeControl feeds the oracle the Conventional slice of Figure 3,
// which drops the gotos on lines 7 and 13. Both the figure check and
// the interpreter must reject it.
func (o *oracle) negativeControl() {
	f := paper.Fig3()
	prog := f.Parse()
	a, err := core.Analyze(prog)
	if err != nil {
		o.failf("negative control: %v", err)
		return
	}
	conv, err := a.Conventional(core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line})
	if err != nil {
		o.failf("negative control: %v", err)
		return
	}
	probe := &oracle{}
	probe.checkFigure(f, conv.Lines(), "negative control")
	probe.checkSlice(a, conv, "negative control")
	o.mu.Lock()
	o.negativeRejected = probe.failed == 2
	o.mu.Unlock()
}

// sliceBody is the library's rendering of a /slice response, with the
// daemon's field names; the per-request fields request and duration_ns
// are left out.
type sliceBody struct {
	Algorithm  string           `json:"algorithm"`
	Var        string           `json:"var"`
	Line       int              `json:"line"`
	Lines      []int            `json:"lines"`
	JumpLines  []int            `json:"jump_lines,omitempty"`
	Traversals int              `json:"traversals,omitempty"`
	Text       string           `json:"text"`
	Reasons    map[int][]string `json:"reasons,omitempty"`
	Listing    string           `json:"listing,omitempty"`
}

// patchBody is the library's rendering of a PATCH /session response.
type patchBody struct {
	sliceBody
	Session      string          `json:"session"`
	Incremental  *core.IncrStats `json:"incremental"`
	LinesAdded   []int           `json:"lines_added"`
	LinesRemoved []int           `json:"lines_removed"`
}

// expectSlice renders a single-procedure slice as the daemon would.
func expectSlice(a *core.Analysis, sl *core.Slice, explain bool) (sliceBody, error) {
	b := sliceBody{
		Algorithm:  sl.Algorithm,
		Var:        sl.Criterion.Var,
		Line:       sl.Criterion.Line,
		Lines:      sl.Lines(),
		Traversals: sl.Traversals,
		Text:       sl.Format(),
	}
	for _, nid := range sl.JumpsAdded {
		b.JumpLines = append(b.JumpLines, a.CFG.Nodes[nid].Line)
	}
	if explain {
		p, err := sl.Explain()
		if err != nil {
			return b, err
		}
		b.Reasons = p.LineReasons()
		b.Listing = p.Listing()
	}
	return b, nil
}

// expectSDG renders an interprocedural slice as the daemon would.
func expectSDG(ps *core.ProgramSet, sl *core.InterSlice, c core.Criterion) sliceBody {
	b := sliceBody{
		Algorithm:  sl.Algorithm,
		Var:        c.Var,
		Line:       c.Line,
		Lines:      sl.Lines(),
		Traversals: sl.Traversals,
		Text:       sl.Format(),
	}
	for _, u := range ps.Units {
		for _, nid := range sl.PerProc[u.Index].JumpsAdded {
			b.JumpLines = append(b.JumpLines, u.Sub.CFG.Nodes[nid].Line)
		}
	}
	sort.Ints(b.JumpLines)
	return b
}

// sliceDelta mirrors the daemon's pre/post-edit line delta: lines of
// the new slice not in the old one, and the reverse.
// A criterion the old program cannot resolve yields no delta.
func sliceDelta(prev, cur *core.Analysis, crit core.Criterion, sl *core.Slice) (added, removed []int) {
	psl, err := prev.Agrawal(crit)
	if err != nil || psl.Nodes.Cap() != sl.Nodes.Cap() {
		return nil, nil
	}
	return deltaLines(sl.Nodes.Diff(psl.Nodes), cur), deltaLines(psl.Nodes.Diff(sl.Nodes), prev)
}

func deltaLines(d interface{ Next(int) int }, a *core.Analysis) []int {
	var lines []int
	for i := d.Next(0); i >= 0; i = d.Next(i + 1) {
		if l := a.CFG.Nodes[i].Line; l > 0 {
			lines = append(lines, l)
		}
	}
	sort.Ints(lines)
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// normalized round-trips v through JSON into generic values.
func normalized(v any) (map[string]any, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(data, &m)
}

// compareResponse checks a daemon response body against the library's
// expected body, ignoring the per-request fields.
func (o *oracle) compareResponse(body []byte, want map[string]any, where string) {
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		o.failf("%s: undecodable response: %v", where, err)
		return
	}
	delete(got, "request")
	delete(got, "duration_ns")
	if !reflect.DeepEqual(got, want) {
		o.failf("%s: daemon response differs from the library's:\n got %.300v\nwant %.300v", where, got, want)
		return
	}
	o.count(&o.compared, 1)
}
