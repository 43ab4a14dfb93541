// Benchmarks regenerating the paper's evaluation, one benchmark per
// figure, plus the scaling and ablation measurements reported in
// EXPERIMENTS.md (tables E3 and E5). Run with:
//
//	go test -bench=. -benchmem ./...
//
// Figure benchmarks measure one slice computation (analysis reused,
// which matches the intended usage: analyze once, slice many times);
// the BenchmarkAnalyze series measures analysis construction itself.
package jumpslice_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"jumpslice/internal/baselines"
	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
	"jumpslice/internal/dom"
	"jumpslice/internal/dynslice"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
	"jumpslice/internal/restructure"
	"jumpslice/internal/slicecache"
)

// benchFigure runs the Figure 7 algorithm on a corpus figure,
// asserting the paper's line set once so a buggy benchmark cannot
// silently measure the wrong thing.
func benchFigure(b *testing.B, f *paper.Figure) {
	a, err := core.Analyze(f.Parse())
	if err != nil {
		b.Fatal(err)
	}
	c := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
	s, err := a.Agrawal(c)
	if err != nil {
		b.Fatal(err)
	}
	got := s.Lines()
	if len(got) != len(f.AgrawalLines) {
		b.Fatalf("slice = %v, want %v", got, f.AgrawalLines)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Agrawal(c); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per example-program figure of the paper.

func BenchmarkFigure01(b *testing.B) { benchFigure(b, paper.Fig1()) }
func BenchmarkFigure03(b *testing.B) { benchFigure(b, paper.Fig3()) }
func BenchmarkFigure05(b *testing.B) { benchFigure(b, paper.Fig5()) }
func BenchmarkFigure08(b *testing.B) { benchFigure(b, paper.Fig8()) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, paper.Fig10()) }
func BenchmarkFigure14(b *testing.B) { benchFigure(b, paper.Fig14()) }
func BenchmarkFigure16(b *testing.B) { benchFigure(b, paper.Fig16()) }

// BenchmarkFigure02Graphs measures construction of every structure
// behind the paper's graph figures (2, 4, 6, 9, 11, 15): flowgraph,
// postdominator tree, dependence graphs and lexical successor tree.
func BenchmarkFigure02Graphs(b *testing.B) {
	for _, f := range paper.All() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			prog := f.Parse()
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithms compares every algorithm on the same program
// (the paper's Figure 3-a for the general ones, Figure 5-a for the
// structured-only ones) — the E3 comparison at paper scale.
func BenchmarkAlgorithms(b *testing.B) {
	goto3, err := core.Analyze(paper.Fig3().Parse())
	if err != nil {
		b.Fatal(err)
	}
	c3 := core.Criterion{Var: "positives", Line: 15}
	cont5, err := core.Analyze(paper.Fig5().Parse())
	if err != nil {
		b.Fatal(err)
	}
	c5 := core.Criterion{Var: "positives", Line: 14}

	cases := []struct {
		name string
		a    *core.Analysis
		c    core.Criterion
		run  func(*core.Analysis, core.Criterion) (*core.Slice, error)
	}{
		{"Conventional", goto3, c3, func(a *core.Analysis, c core.Criterion) (*core.Slice, error) { return a.Conventional(c) }},
		{"Agrawal", goto3, c3, func(a *core.Analysis, c core.Criterion) (*core.Slice, error) { return a.Agrawal(c) }},
		{"AgrawalLST", goto3, c3, func(a *core.Analysis, c core.Criterion) (*core.Slice, error) { return a.AgrawalLST(c) }},
		{"Structured", cont5, c5, func(a *core.Analysis, c core.Criterion) (*core.Slice, error) { return a.AgrawalStructured(c) }},
		{"Conservative", cont5, c5, func(a *core.Analysis, c core.Criterion) (*core.Slice, error) { return a.AgrawalConservative(c) }},
		{"BallHorwitz", goto3, c3, baselines.BallHorwitz},
		{"Lyle", goto3, c3, baselines.Lyle},
		{"Gallagher", goto3, c3, baselines.Gallagher},
		{"JiangZhouRobson", goto3, c3, baselines.JiangZhouRobson},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.run(tc.a, tc.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scalingSizes are the program sizes of the E3 sweep.
var scalingSizes = []int{25, 100, 400, 1600}

// BenchmarkScaling is E3: the wall clock of one slice (analysis
// excluded) for every algorithm in baselines.ByName against program
// size on the structured corpus, plus the batch engine's marginal
// per-slice cost: a single-criterion SliceAll on a warm condensation.
// Ball–Horwitz rebuilds the augmented graph per slice, which is where
// its overhead against Agrawal comes from — the paper's "leaves the
// flowgraph and the PDG intact" argument, measured.
func BenchmarkScaling(b *testing.B) {
	names := make([]string, 0, len(baselines.ByName))
	for name := range baselines.ByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, size := range scalingSizes {
		p := progen.Structured(progen.Config{Seed: 7, Stmts: size})
		a, err := core.Analyze(p)
		if err != nil {
			b.Fatal(err)
		}
		crits := progen.WriteCriteria(p)
		c := core.Criterion{Var: crits[len(crits)-1].Var, Line: crits[len(crits)-1].Line}
		for _, name := range names {
			run := baselines.ByName[name]
			b.Run(fmt.Sprintf("%s/stmts=%d", name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := run(a, c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("agrawal-batch/stmts=%d", size), func(b *testing.B) {
			batch := []core.Criterion{c}
			if _, err := a.SliceAll(batch); err != nil { // warm the condensation
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.SliceAll(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSliceAll measures the batch slicing engine against
// independent per-criterion calls: a 100-criterion corpus (write
// criteria spread over several generated programs), sliced once with
// per-criterion Agrawal (per-node BFS closures) and once with
// SliceAll (shared SCC-condensed, memoized bitset closures). The
// slices are asserted identical before timing; the acceptance target
// is batch ≥ 2× faster.
func BenchmarkSliceAll(b *testing.B) {
	type task struct {
		a     *core.Analysis
		crits []core.Criterion
	}
	var tasks []task
	total := 0
	for seed := int64(0); total < 100; seed++ {
		p := progen.Structured(progen.Config{Seed: seed, Stmts: 120})
		a, err := core.Analyze(p)
		if err != nil {
			b.Fatal(err)
		}
		var crits []core.Criterion
		for _, wc := range progen.WriteCriteria(p) {
			crits = append(crits, core.Criterion{Var: wc.Var, Line: wc.Line})
		}
		total += len(crits)
		tasks = append(tasks, task{a, crits})
	}
	for _, tk := range tasks {
		batch, err := tk.a.SliceAll(tk.crits)
		if err != nil {
			b.Fatal(err)
		}
		for i, c := range tk.crits {
			s, err := tk.a.Agrawal(c)
			if err != nil {
				b.Fatal(err)
			}
			if !s.Nodes.Equal(batch[i].Nodes) {
				b.Fatalf("batch slice differs from Agrawal at %s", c)
			}
		}
	}
	b.Logf("criteria: %d over %d programs", total, len(tasks))
	b.Run("independent-agrawal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tk := range tasks {
				for _, c := range tk.crits {
					if _, err := tk.a.Agrawal(c); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("batch-sliceall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tk := range tasks {
				if _, err := tk.a.SliceAll(tk.crits); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCachedSlice measures the analysis cache's hit path against
// rebuilding the pipeline from source: each iteration resolves the
// same program text to an analysis (cached: content-hash lookup +
// Rebind view; uncached: parse + full analysis) and computes one
// Agrawal slice. The acceptance target is cached ≥ 5× faster; the
// slices are asserted identical before timing.
func BenchmarkCachedSlice(b *testing.B) {
	p := progen.Structured(progen.Config{Seed: 7, Stmts: 400})
	src := lang.Format(p, lang.PrintOptions{})
	crits := progen.WriteCriteria(p)
	c := core.Criterion{Var: crits[len(crits)-1].Var, Line: crits[len(crits)-1].Line}
	ctx := context.Background()
	build := func(bctx context.Context) (*core.Analysis, error) {
		prog, err := lang.Parse(src)
		if err != nil {
			return nil, err
		}
		built, err := core.AnalyzeObservedContext(bctx, prog, nil, nil)
		if err != nil {
			return nil, err
		}
		return built.Rebind(nil, nil, nil), nil
	}

	cache := slicecache.New(slicecache.Options{})
	warm, _, err := cache.Get(ctx, src, build)
	if err != nil {
		b.Fatal(err)
	}
	ws, err := warm.Agrawal(c)
	if err != nil {
		b.Fatal(err)
	}
	cold, err := build(ctx)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := cold.Agrawal(c)
	if err != nil {
		b.Fatal(err)
	}
	if !ws.Nodes.Equal(cs.Nodes) {
		b.Fatal("cached and uncached slices differ")
	}

	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := build(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.Agrawal(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _, err := cache.Get(ctx, src, build)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.Rebind(ctx, nil, nil).Agrawal(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyze measures analysis construction (flowgraph +
// postdominators + dependence graphs + lexical successor tree)
// against program size.
func BenchmarkAnalyze(b *testing.B) {
	for _, size := range scalingSizes {
		size := size
		b.Run(fmt.Sprintf("stmts=%d", size), func(b *testing.B) {
			p := progen.Structured(progen.Config{Seed: 7, Stmts: size})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDominatorsAblation compares the two dominator algorithms
// (iterative Cooper–Harvey–Kennedy vs Lengauer–Tarjan) on the largest
// sweep program — the substrate ablation DESIGN.md calls out.
func BenchmarkDominatorsAblation(b *testing.B) {
	p := progen.Structured(progen.Config{Seed: 7, Stmts: 1600})
	a, err := core.Analyze(p)
	if err != nil {
		b.Fatal(err)
	}
	g := a.CFG
	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dom.PostDominators(g, g.Exit.ID)
		}
	})
	b.Run("lengauer-tarjan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dom.PostDominatorsLT(g, g.Exit.ID)
		}
	})
}

// BenchmarkTraversalDriverAblation compares the two search drivers the
// paper says are interchangeable: preorder of the postdominator tree
// vs preorder of the lexical successor tree, on the figure that needs
// multiple traversals.
func BenchmarkTraversalDriverAblation(b *testing.B) {
	a, err := core.Analyze(paper.Fig10().Parse())
	if err != nil {
		b.Fatal(err)
	}
	c := core.Criterion{Var: "y", Line: 9}
	b.Run("pdt-preorder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Agrawal(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lst-preorder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.AgrawalLST(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaterialize measures slice-to-program projection.
func BenchmarkMaterialize(b *testing.B) {
	p := progen.Structured(progen.Config{Seed: 7, Stmts: 400})
	a, err := core.Analyze(p)
	if err != nil {
		b.Fatal(err)
	}
	crits := progen.WriteCriteria(p)
	c := core.Criterion{Var: crits[len(crits)-1].Var, Line: crits[len(crits)-1].Line}
	s, err := a.Agrawal(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Materialize()
	}
}

// BenchmarkSingleCriterion measures what one request for one slice
// costs on a cached analysis — the daemon's per-request work — split
// into its layers: the conventional closure, the Figure 7 repair on
// top of it, printing the Figure 7 slice, and explaining it. The
// programs are 400-statement structured progen programs (switches
// included) on four seeds, each sliced on its last write criterion.
// benchgate pins agrawal:conventional, so the repair's invariant
// bookkeeping stays proportional to what the repair adds rather than
// to the program's switch-enclosed node count, and explain:agrawal,
// so an explain response stays cheap next to the slice it explains.
func BenchmarkSingleCriterion(b *testing.B) {
	type task struct {
		a *core.Analysis
		c core.Criterion
		s *core.Slice
	}
	var tasks []task
	for seed := int64(1); seed <= 4; seed++ {
		p := progen.Structured(progen.Config{Seed: seed, Stmts: 400})
		a, err := core.Analyze(p)
		if err != nil {
			b.Fatal(err)
		}
		crits := progen.WriteCriteria(p)
		c := core.Criterion{Var: crits[len(crits)-1].Var, Line: crits[len(crits)-1].Line}
		s, err := a.Agrawal(c)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, task{a, c, s})
	}
	b.Run("conventional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tk := range tasks {
				if _, err := tk.a.Conventional(tk.c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("agrawal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tk := range tasks {
				if _, err := tk.a.Agrawal(tk.c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("format", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tk := range tasks {
				_ = tk.s.Format()
			}
		}
	})
	// explain is what an explain response adds to the slice: the
	// provenance and the rendering the daemon appends its reasons and
	// listing from.
	b.Run("explain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tk := range tasks {
				p, err := tk.s.Explain()
				if err != nil {
					b.Fatal(err)
				}
				r := p.Render()
				r.Listing()
				r.Release()
			}
		}
	})
}

// BenchmarkCDGAblation compares the two control dependence
// constructions (FOW edge walk vs Cytron postdominance frontiers).
func BenchmarkCDGAblation(b *testing.B) {
	p := progen.Structured(progen.Config{Seed: 7, Stmts: 400})
	g, err := cfg.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	pdt := dom.PostDominators(g, g.Exit.ID)
	b.Run("fow-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cdg.Build(g, pdt)
		}
	})
	b.Run("postdominance-frontier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cdg.ParentsByPDF(g, pdt)
		}
	})
}

// BenchmarkExtensions measures the extension subsystems at paper
// scale: the Choi–Ferrante flattener, the pc-loop restructurer, and
// the dynamic slicer.
func BenchmarkExtensions(b *testing.B) {
	f := paper.Fig3()
	a, err := core.Analyze(f.Parse())
	if err != nil {
		b.Fatal(err)
	}
	c := core.Criterion{Var: "positives", Line: 15}
	b.Run("choi-ferrante-flatten", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.ChoiFerranteExecutable(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restructure", func(b *testing.B) {
		prog := f.Parse()
		for i := 0; i < b.N; i++ {
			if _, err := restructure.Program(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dynamic-slice", func(b *testing.B) {
		in := []int64{3, -1, 4, 0, 5}
		for i := 0; i < b.N; i++ {
			if _, err := dynslice.Slice(a, c, dynslice.Options{Input: in}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weiser", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.Weiser(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalEdit measures the editor loop on the 400-stmt
// structured corpus program, timing what the sliced daemon does for a
// patched-tier PATCH: SpliceLine the one-line edit into the previous
// AST, ReanalyzeProgram reusing every shape-pure phase, then slice the
// criterion with Agrawal (the daemon slices through baselines.Slice,
// the per-call engine). The cold side parses and analyzes the edited
// text and slices the same criterion. The acceptance target — gated
// in benchgate — is incremental < 5% of cold; the edit is asserted to
// land in the "patched" tier and to produce the cold run's slice
// before timing.
func BenchmarkIncrementalEdit(b *testing.B) {
	p := progen.Structured(progen.Config{Seed: 7, Stmts: 400})
	src := lang.Format(p, lang.PrintOptions{})
	crits := progen.WriteCriteria(p)
	c := core.Criterion{Var: crits[len(crits)-1].Var, Line: crits[len(crits)-1].Line}
	ctx := context.Background()

	prev, err := core.AnalyzeObservedContext(ctx, p, nil, nil)
	if err != nil {
		b.Fatal(err)
	}

	// Pick the last line SpliceLine accepts whose edit stays in the
	// patched tier: an assignment rewritten with the same target
	// variable, so no definition moves.
	line, text := 0, ""
	texts := lang.LineTexts(p) // the edit keeps the line's labels
	for _, s := range lang.Statements(p) {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			continue
		}
		labels := strings.TrimSuffix(texts[as.Pos().Line], lang.StmtString(as))
		cand := fmt.Sprintf("%s%s = %s + 1;", labels, as.Name, as.Name)
		p2, ok := incremental.SpliceLine(p, as.Pos().Line, cand)
		if !ok {
			continue
		}
		_, stats, err := core.ReanalyzeProgram(ctx, prev, p2, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Outcome == "patched" {
			line, text = as.Pos().Line, cand
		}
	}
	if line == 0 {
		b.Fatal("no patched-tier assignment edit found in the corpus program")
	}
	lines := strings.Split(src, "\n")
	lines[line-1] = text
	newSrc := strings.Join(lines, "\n")

	coldBuild := func() (*core.Analysis, error) {
		prog, err := lang.Parse(newSrc)
		if err != nil {
			return nil, err
		}
		return core.AnalyzeObservedContext(ctx, prog, nil, nil)
	}

	// Correctness gate before timing: the incremental re-analysis must
	// be patched-tier and slice to the cold rebuild's node set.
	p2, ok := incremental.SpliceLine(prev.Prog, line, text)
	if !ok {
		b.Fatal("SpliceLine refused the benchmark edit")
	}
	inc, stats, err := core.ReanalyzeProgram(ctx, prev, p2, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Outcome != "patched" {
		b.Fatalf("benchmark edit landed in tier %q (fallback %q), want patched", stats.Outcome, stats.Fallback)
	}
	is, err := inc.Agrawal(c)
	if err != nil {
		b.Fatal(err)
	}
	cold, err := coldBuild()
	if err != nil {
		b.Fatal(err)
	}
	cs, err := cold.Agrawal(c)
	if err != nil {
		b.Fatal(err)
	}
	if !is.Nodes.Equal(cs.Nodes) {
		b.Fatal("incremental and cold slices differ")
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := coldBuild()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.Agrawal(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p2, ok := incremental.SpliceLine(prev.Prog, line, text)
			if !ok {
				b.Fatal("SpliceLine refused the benchmark edit")
			}
			a, _, err := core.ReanalyzeProgram(ctx, prev, p2, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.Agrawal(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSliceSDG measures the two-pass interprocedural slice on a
// generated multi-procedure program set, split into the two phases a
// serving process actually sees: the first slice of a fresh program
// set runs the HRB summary-edge worklist before its two traversals
// ("cold"), every later slice reuses the cached summaries ("warm").
// The acceptance target — gated in benchgate — is warm ≤ 20% of cold:
// summary construction must amortize across a slice session. The
// criterion is the main write whose slice is smallest, so the gated
// ratio isolates the summary worklist rather than closure size, and
// the warm slice is asserted identical to the cold one before timing.
func BenchmarkSliceSDG(b *testing.B) {
	p := progen.MultiProc(progen.Config{Seed: 11, Stmts: 40, Procs: 16, Vars: 24})
	crits := progen.MainWriteCriteria(p)
	if len(crits) == 0 {
		b.Fatal("multi-procedure corpus program has no main write criteria")
	}
	pick := func() (core.Criterion, []int) {
		ps, err := core.AnalyzeProgramSet(p)
		if err != nil {
			b.Fatal(err)
		}
		best, bestLines := core.Criterion{}, []int(nil)
		for _, wc := range crits {
			s, err := ps.SliceInterproc(core.Criterion{Var: wc.Var, Line: wc.Line})
			if err != nil {
				b.Fatal(err)
			}
			if bestLines == nil || len(s.Lines()) < len(bestLines) {
				best, bestLines = s.Criterion, s.Lines()
			}
		}
		return best, bestLines
	}
	c, coldLines := pick()

	warmSet, err := core.AnalyzeProgramSet(p)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := warmSet.SliceInterproc(c) // computes the summaries once
	if err != nil {
		b.Fatal(err)
	}
	if fmt.Sprint(warm.Lines()) != fmt.Sprint(coldLines) {
		b.Fatalf("warm slice %v differs from cold slice %v", warm.Lines(), coldLines)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ps, err := core.AnalyzeProgramSet(p)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ps.SliceInterproc(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := warmSet.SliceInterproc(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTextLayers splits one cold-pipeline operation — parse a
// never-seen program, analyze it, slice every write criterion with
// SliceAll, format every slice — into its text layers and the
// analysis between them, on the cold-pipeline corpus shape:
// 200-statement progen programs, structured and unstructured.
// "sliceall" is the paper's slice fixpoint alone: SliceAll on fresh
// analyses built outside the timer. benchgate pins format:sliceall
// and parse:sliceall, so the bytes in and the bytes out cannot again
// come to cost more than the slicing they frame; the denominator
// excludes the dependence analysis, whose speed has nothing to do
// with the text layers.
func BenchmarkTextLayers(b *testing.B) {
	type input struct {
		src   string
		prog  *lang.Program
		crits []core.Criterion
		a     *core.Analysis
		sl    []*core.Slice
	}
	var ins []*input
	for seed := int64(1); seed <= 4; seed++ {
		c := progen.Config{Seed: seed, Stmts: 200}
		gen := progen.Unstructured(c)
		if seed%2 == 0 {
			gen = progen.Structured(c)
		}
		in := &input{src: lang.Format(gen, lang.PrintOptions{})}
		var err error
		if in.prog, err = lang.Parse(in.src); err != nil {
			b.Fatal(err)
		}
		for _, wc := range progen.WriteCriteria(in.prog) {
			in.crits = append(in.crits, core.Criterion{Var: wc.Var, Line: wc.Line})
		}
		if in.a, err = core.Analyze(in.prog); err != nil {
			b.Fatal(err)
		}
		if in.sl, err = in.a.SliceAll(in.crits); err != nil {
			b.Fatal(err)
		}
		ins = append(ins, in)
	}
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range ins {
				if _, err := lang.Parse(in.src); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range ins {
				a, err := core.Analyze(in.prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.SliceAll(in.crits); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sliceall", func(b *testing.B) {
		as := make([]*core.Analysis, len(ins))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j, in := range ins {
				a, err := core.Analyze(in.prog)
				if err != nil {
					b.Fatal(err)
				}
				as[j] = a
			}
			// Collect the analyses' garbage here, so the timed region
			// pays only for its own.
			runtime.GC()
			b.StartTimer()
			for j, in := range ins {
				if _, err := as[j].SliceAll(in.crits); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("format", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range ins {
				for _, s := range in.sl {
					s.Format()
				}
			}
		}
	})
}
