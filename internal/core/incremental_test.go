package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/progen"
)

// fig8src is the Figure 8(a)-style program the deterministic tier
// tests edit: it has loops, conditional jumps and labels, so every
// reused structure is non-trivial.
const fig8src = `sum = 0;
positives = 0;
L3: if (eof()) goto L14;
read(x);
if (x > 0) goto L8;
sum = sum + f1(x);
goto L3;
L8: positives = positives + 1;
if (x % 2 != 0) goto L12;
sum = sum + f2(x);
goto L3;
L12: sum = sum + f3(x);
goto L3;
L14: write(sum);
write(positives);
`

func editSrcLine(t *testing.T, src string, line int, text string) string {
	t.Helper()
	lines := strings.Split(src, "\n")
	if line < 1 || line > len(lines) {
		t.Fatalf("editSrcLine: line %d out of range", line)
	}
	lines[line-1] = text
	return strings.Join(lines, "\n")
}

// reanalyze parses newSrc and re-analyzes it against prev.
func reanalyze(prev *Analysis, newSrc string) (*Analysis, *IncrStats, error) {
	return ReanalyzeProgram(context.Background(), prev, lang.MustParse(newSrc), nil, nil)
}

func analyzeSrc(t *testing.T, src string) *Analysis {
	t.Helper()
	a, err := Analyze(lang.MustParse(src))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// incrAlgos is the per-criterion algorithm matrix the identity checks
// run; the structured pair legitimately errors on unstructured
// programs, and the checks require the incremental and cold runs to
// agree on that too.
var incrAlgos = []struct {
	name string
	run  func(*Analysis, Criterion) (*Slice, error)
}{
	{"agrawal", (*Analysis).Agrawal},
	{"agrawal-lst", (*Analysis).AgrawalLST},
	{"structured", (*Analysis).AgrawalStructured},
	{"conservative", (*Analysis).AgrawalConservative},
	{"conventional", (*Analysis).Conventional},
}

// requireSameSlices asserts that the incrementally derived analysis
// and a cold analysis of the same source are observationally
// byte-identical: same lines, traversal counts, added jumps, label
// retargeting and materialized text for every algorithm and
// criterion, and the same batch results.
func requireSameSlices(t *testing.T, ctxt string, inc, cold *Analysis, crits []Criterion) {
	t.Helper()
	if !inc.PDT.Equal(cold.PDT) {
		t.Fatalf("%s: reused postdominator tree differs from cold rebuild", ctxt)
	}
	for _, c := range crits {
		for _, alg := range incrAlgos {
			si, errI := alg.run(inc, c)
			sc, errC := alg.run(cold, c)
			if (errI == nil) != (errC == nil) {
				t.Fatalf("%s: %s(%v): incremental err=%v, cold err=%v", ctxt, alg.name, c, errI, errC)
			}
			if errI != nil {
				continue
			}
			if got, want := fmt.Sprint(si.Lines()), fmt.Sprint(sc.Lines()); got != want {
				t.Fatalf("%s: %s(%v): lines %s, cold %s", ctxt, alg.name, c, got, want)
			}
			if si.Traversals != sc.Traversals {
				t.Fatalf("%s: %s(%v): traversals %d, cold %d", ctxt, alg.name, c, si.Traversals, sc.Traversals)
			}
			if got, want := fmt.Sprint(si.JumpsAdded), fmt.Sprint(sc.JumpsAdded); got != want {
				t.Fatalf("%s: %s(%v): jumps added %s, cold %s", ctxt, alg.name, c, got, want)
			}
			if got, want := fmt.Sprint(si.RelabeledLines()), fmt.Sprint(sc.RelabeledLines()); got != want {
				t.Fatalf("%s: %s(%v): relabeled %s, cold %s", ctxt, alg.name, c, got, want)
			}
			if alg.name == "agrawal" {
				gi := lang.Format(si.Materialize(), lang.PrintOptions{})
				gc := lang.Format(sc.Materialize(), lang.PrintOptions{})
				if gi != gc {
					t.Fatalf("%s: %s(%v): materialized text differs\nincremental:\n%s\ncold:\n%s", ctxt, alg.name, c, gi, gc)
				}
			}
		}
	}
	bi, errI := inc.SliceAll(crits)
	bc, errC := cold.SliceAll(crits)
	if (errI == nil) != (errC == nil) {
		t.Fatalf("%s: SliceAll: incremental err=%v, cold err=%v", ctxt, errI, errC)
	}
	if errI == nil {
		for i := range bi {
			if !bi[i].Nodes.Equal(bc[i].Nodes) {
				t.Fatalf("%s: SliceAll[%d]: incremental %v, cold %v", ctxt, i, bi[i].Lines(), bc[i].Lines())
			}
		}
	}
}

func writeCriteria(p *lang.Program, cap int) []Criterion {
	wc := progen.WriteCriteria(p)
	crits := make([]Criterion, 0, len(wc))
	for _, c := range wc {
		crits = append(crits, Criterion{Var: c.Var, Line: c.Line})
	}
	if cap > 0 && len(crits) > cap {
		// Spread the kept criteria over the program instead of taking a
		// prefix, so late statements stay covered.
		kept := make([]Criterion, 0, cap)
		for i := 0; i < cap; i++ {
			kept = append(kept, crits[i*len(crits)/cap])
		}
		crits = kept
	}
	return crits
}

func TestReanalyzeIdenticalIsPatched(t *testing.T) {
	prev := analyzeSrc(t, fig8src)
	a, stats, err := reanalyze(prev, fig8src)
	if err != nil {
		t.Fatalf("Reanalyze: %v", err)
	}
	if stats.Outcome != "patched" || len(stats.Edits) != 0 || stats.Fallback != "" {
		t.Fatalf("identical source: stats = %+v", stats)
	}
	if a.PDT != prev.PDT {
		t.Fatal("identical source: postdominator tree was not shared")
	}
	requireSameSlices(t, "identical", a, analyzeSrc(t, fig8src),
		[]Criterion{{Var: "sum", Line: 14}, {Var: "positives", Line: 15}})
}

func TestReanalyzeExpressionEditIsPatched(t *testing.T) {
	prev := analyzeSrc(t, fig8src)
	newSrc := editSrcLine(t, fig8src, 6, "sum = sum + f1(x) + 1;")
	a, stats, err := reanalyze(prev, newSrc)
	if err != nil {
		t.Fatalf("Reanalyze: %v", err)
	}
	if stats.Outcome != "patched" {
		t.Fatalf("expression edit: outcome %q (fallback %q), want patched", stats.Outcome, stats.Fallback)
	}
	if len(stats.Edits) != 1 || stats.Edits[0].Op != incremental.OpReplace {
		t.Fatalf("expression edit: edits = %+v", stats.Edits)
	}
	if stats.PhasesReused < 5 {
		t.Fatalf("expression edit: phases reused = %d, want >= 5", stats.PhasesReused)
	}
	requireSameSlices(t, "expr edit", a, analyzeSrc(t, newSrc),
		[]Criterion{{Var: "sum", Line: 14}, {Var: "positives", Line: 15}})
}

func TestReanalyzeDefEditIsPartial(t *testing.T) {
	prev := analyzeSrc(t, fig8src)
	newSrc := editSrcLine(t, fig8src, 2, "others = 0;")
	a, stats, err := reanalyze(prev, newSrc)
	if err != nil {
		t.Fatalf("Reanalyze: %v", err)
	}
	if stats.Outcome != "partial" {
		t.Fatalf("def edit: outcome %q (fallback %q), want partial", stats.Outcome, stats.Fallback)
	}
	requireSameSlices(t, "def edit", a, analyzeSrc(t, newSrc),
		[]Criterion{{Var: "sum", Line: 14}, {Var: "x", Line: 4}})
}

func TestReanalyzeStructuralEditIsFull(t *testing.T) {
	prev := analyzeSrc(t, fig8src)
	newSrc := fig8src + "write(sum);\n"
	a, stats, err := reanalyze(prev, newSrc)
	if err != nil {
		t.Fatalf("Reanalyze: %v", err)
	}
	if stats.Outcome != "full" || stats.Fallback == "" {
		t.Fatalf("structural edit: stats = %+v", stats)
	}
	if stats.PhasesReused != 0 {
		t.Fatalf("structural edit: phases reused = %d, want 0", stats.PhasesReused)
	}
	requireSameSlices(t, "structural edit", a, analyzeSrc(t, newSrc),
		[]Criterion{{Var: "sum", Line: 14}})
}

func TestReanalyzeNilPreviousIsFull(t *testing.T) {
	a, stats, err := reanalyze(nil, fig8src)
	if err != nil {
		t.Fatalf("Reanalyze: %v", err)
	}
	if stats.Outcome != "full" || a == nil {
		t.Fatalf("nil previous: stats = %+v", stats)
	}
}

// TestReanalyzeSpliceLine drives the editor fast path end to end: the
// replacement statement is spliced into the previous AST without a
// full reparse, then re-analyzed, and must match a cold analysis of
// the equivalent full text.
func TestReanalyzeSpliceLine(t *testing.T) {
	prev := analyzeSrc(t, fig8src)
	p2, ok := incremental.SpliceLine(prev.Prog, 6, "sum = sum + f9(x);")
	if !ok {
		t.Fatal("SpliceLine refused a one-line simple statement edit")
	}
	a, stats, err := ReanalyzeProgram(prev.Context(), prev, p2, nil, nil)
	if err != nil {
		t.Fatalf("ReanalyzeProgram: %v", err)
	}
	if stats.Outcome != "patched" {
		t.Fatalf("spliced edit: outcome %q (fallback %q), want patched", stats.Outcome, stats.Fallback)
	}
	newSrc := editSrcLine(t, fig8src, 6, "sum = sum + f9(x);")
	requireSameSlices(t, "spliced edit", a, analyzeSrc(t, newSrc),
		[]Criterion{{Var: "sum", Line: 14}, {Var: "positives", Line: 15}})
}

// TestReanalyzeCounters checks the incr.* counters the session daemon
// exports: reused/recomputed phase counts per tier, and fallbacks.
func TestReanalyzeCounters(t *testing.T) {
	reg := obs.NewRegistry()
	prev, err := AnalyzeObservedContext(context.Background(), lang.MustParse(fig8src), reg, nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	newSrc := editSrcLine(t, fig8src, 6, "sum = sum + f1(x) + 1;")
	if _, _, err := ReanalyzeProgram(prev.Context(), prev, lang.MustParse(newSrc), reg, nil); err != nil {
		t.Fatalf("Reanalyze: %v", err)
	}
	if got := reg.Counter("incr.reused").Value(); got < 5 {
		t.Fatalf("incr.reused = %d, want >= 5", got)
	}
	if got := reg.Counter("incr.recomputed").Value(); got != 2 {
		t.Fatalf("incr.recomputed = %d, want 2", got)
	}
	if got := reg.Counter("incr.fallbacks").Value(); got != 0 {
		t.Fatalf("incr.fallbacks = %d, want 0", got)
	}
	if _, _, err := ReanalyzeProgram(prev.Context(), prev, lang.MustParse(fig8src+"write(sum);\n"), reg, nil); err != nil {
		t.Fatalf("Reanalyze: %v", err)
	}
	if got := reg.Counter("incr.fallbacks").Value(); got != 1 {
		t.Fatalf("incr.fallbacks after structural edit = %d, want 1", got)
	}
}

// TestReanalyzePreviousSurvives checks that re-analysis never mutates
// the previous analysis: it must keep producing its own slices
// byte-identically after being used as the donor for an edit.
func TestReanalyzePreviousSurvives(t *testing.T) {
	prev := analyzeSrc(t, fig8src)
	crits := []Criterion{{Var: "sum", Line: 14}, {Var: "positives", Line: 15}}
	if _, err := prev.SliceAll(crits); err != nil {
		t.Fatalf("warming SliceAll: %v", err)
	}
	before, err := prev.Agrawal(crits[0])
	if err != nil {
		t.Fatalf("Agrawal: %v", err)
	}
	newSrc := editSrcLine(t, fig8src, 6, "sum = sum + f1(x) + 1;")
	if _, _, err := reanalyze(prev, newSrc); err != nil {
		t.Fatalf("Reanalyze: %v", err)
	}
	requireSameSlices(t, "donor after reanalyze", prev, analyzeSrc(t, fig8src), crits)
	after, err := prev.Agrawal(crits[0])
	if err != nil {
		t.Fatalf("Agrawal after Reanalyze: %v", err)
	}
	if !before.Nodes.Equal(after.Nodes) {
		t.Fatal("Reanalyze mutated the donor analysis")
	}
}

// TestReanalyzeConcurrentWithDonorSlicing derives patched
// re-analyses of one warmed donor while other goroutines slice the
// donor: the rebound flowgraph shares the donor's nodes and the PDG
// its row tables, so all of the donor's state must stay read-only.
// Every result must match a cold analysis (run with -race).
func TestReanalyzeConcurrentWithDonorSlicing(t *testing.T) {
	prev := MustAnalyze(progen.Unstructured(progen.Config{Seed: 3, Stmts: 60}))
	var crits []Criterion
	for _, wc := range progen.WriteCriteria(prev.Prog) {
		crits = append(crits, Criterion{Var: wc.Var, Line: wc.Line})
	}
	formats := func(a *Analysis) (string, error) {
		sl, err := a.SliceAll(crits)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, s := range sl {
			sb.WriteString(s.Format())
		}
		return sb.String(), nil
	}
	want, err := formats(prev) // also builds the donor's condensation
	if err != nil {
		t.Fatal(err)
	}
	var edits []*lang.Program
	for _, s := range lang.Statements(prev.Prog) {
		if as, ok := lang.Unlabel(s).(*lang.AssignStmt); ok {
			if p2, ok := incremental.SpliceLine(prev.Prog, as.Pos().Line, fmt.Sprintf("%s = %s + 1;", as.Name, as.Name)); ok {
				edits = append(edits, p2)
			}
		}
	}
	if len(edits) < 4 {
		t.Fatalf("only %d splicable assignments", len(edits))
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if got, err := formats(prev); err != nil || got != want {
					t.Errorf("donor slices changed under concurrent re-analysis (err %v)", err)
				}
				return
			}
			p2 := edits[i%len(edits)]
			a, stats, err := ReanalyzeProgram(context.Background(), prev, p2, nil, nil)
			if err != nil || stats.Outcome != "patched" {
				t.Errorf("edit %d: err %v, stats %+v", i, err, stats)
				return
			}
			got, err := formats(a)
			if err != nil {
				t.Error(err)
				return
			}
			if cold, err := formats(MustAnalyze(p2)); err != nil || got != cold {
				t.Errorf("edit %d: incremental slices differ from a cold analysis (err %v)", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// ---------------------------------------------------------------------
// Randomized-edit property test: on both generated corpora, chains of
// random edits re-analyzed incrementally must stay byte-identical
// with a cold analysis of the final text, across every algorithm.

// mutate applies one random statement-level edit to a freshly parsed
// copy of src and returns the new source text plus the tier the edit
// should land in ("patched", "partial", "full", or "" for any).
func mutate(rng *rand.Rand, src string) (string, string) {
	p := lang.MustParse(src)
	stmts := lang.Statements(p)
	switch rng.Intn(4) {
	case 0: // expression tweak at a random assignment or write
		var cands []lang.Stmt
		for _, s := range stmts {
			switch lang.Unlabel(s).(type) {
			case *lang.AssignStmt, *lang.WriteStmt:
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			return src, ""
		}
		lit := &lang.IntLit{Value: int64(1 + rng.Intn(9))}
		switch s := lang.Unlabel(cands[rng.Intn(len(cands))]).(type) {
		case *lang.AssignStmt:
			s.Value = &lang.BinaryExpr{Op: "+", X: s.Value, Y: lit}
		case *lang.WriteStmt:
			s.Value = &lang.BinaryExpr{Op: "+", X: s.Value, Y: lit}
		}
		return lang.Format(p, lang.PrintOptions{}), "patched"
	case 1: // definition rename at a random assignment or read
		var cands []lang.Stmt
		for _, s := range stmts {
			switch lang.Unlabel(s).(type) {
			case *lang.AssignStmt, *lang.ReadStmt:
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			return src, ""
		}
		name := fmt.Sprintf("v%d", rng.Intn(8))
		tier := "partial"
		switch s := lang.Unlabel(cands[rng.Intn(len(cands))]).(type) {
		case *lang.AssignStmt:
			if s.Name == name {
				tier = "patched" // no-op rename: identical program
			}
			s.Name = name
		case *lang.ReadStmt:
			if s.Name == name {
				tier = "patched"
			}
			s.Name = name
		}
		return lang.Format(p, lang.PrintOptions{}), tier
	case 2: // insert a top-level assignment
		at := rng.Intn(len(p.Body) + 1)
		ins := &lang.AssignStmt{
			Name:  fmt.Sprintf("v%d", rng.Intn(8)),
			Value: &lang.IntLit{Value: int64(rng.Intn(100))},
		}
		p.Body = append(p.Body[:at:at], append([]lang.Stmt{ins}, p.Body[at:]...)...)
		return lang.Format(p, lang.PrintOptions{}), "full"
	default: // delete a top-level simple unlabeled statement
		var idxs []int
		for i, s := range p.Body {
			switch s.(type) {
			case *lang.AssignStmt, *lang.ReadStmt, *lang.WriteStmt:
				idxs = append(idxs, i)
			}
		}
		if len(idxs) == 0 || len(p.Body) < 3 {
			return src, ""
		}
		at := idxs[rng.Intn(len(idxs))]
		p.Body = append(p.Body[:at:at], p.Body[at+1:]...)
		return lang.Format(p, lang.PrintOptions{}), "full"
	}
}

func TestReanalyzePropertyByteIdentity(t *testing.T) {
	corpora := []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{
		{"structured", progen.Structured},
		{"unstructured", progen.Unstructured},
	}
	seeds := 120
	edits := 3
	if testing.Short() {
		seeds = 25
	}
	outcomes := map[string]int{}
	for _, corpus := range corpora {
		t.Run(corpus.name, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(1000*seeds + seed)))
				src := lang.Format(corpus.gen(progen.Config{Seed: int64(seed), Stmts: 40}), lang.PrintOptions{})
				cur, err := Analyze(lang.MustParse(src))
				if err != nil {
					t.Fatalf("%s seed %d: analyze: %v", corpus.name, seed, err)
				}
				for step := 0; step < edits; step++ {
					// Build the donor's condensation, as a batch
					// caller would, before it becomes a donor.
					if _, err := cur.SliceAll(writeCriteria(cur.Prog, 2)); err != nil {
						t.Fatalf("%s seed %d step %d: warm SliceAll: %v", corpus.name, seed, step, err)
					}
					newSrc, wantTier := mutate(rng, src)
					inc, stats, err := reanalyze(cur, newSrc)
					if err != nil {
						t.Fatalf("%s seed %d step %d: Reanalyze: %v\nsource:\n%s", corpus.name, seed, step, err, newSrc)
					}
					if wantTier != "" && stats.Outcome != wantTier {
						t.Fatalf("%s seed %d step %d: outcome %q (fallback %q), want %q\nold:\n%s\nnew:\n%s",
							corpus.name, seed, step, stats.Outcome, stats.Fallback, wantTier, src, newSrc)
					}
					outcomes[stats.Outcome]++
					cold, err := Analyze(lang.MustParse(newSrc))
					if err != nil {
						t.Fatalf("%s seed %d step %d: cold analyze: %v", corpus.name, seed, step, err)
					}
					ctxt := fmt.Sprintf("%s seed %d step %d (%s)", corpus.name, seed, step, stats.Outcome)
					requireSameSlices(t, ctxt, inc, cold, writeCriteria(inc.Prog, 3))
					src, cur = newSrc, inc
				}
			}
		})
	}
	for _, tier := range []string{"patched", "partial", "full"} {
		if outcomes[tier] == 0 {
			t.Errorf("no random edit landed in the %q tier (distribution: %v)", tier, outcomes)
		}
	}
}
