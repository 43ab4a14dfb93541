// Package jumpslice is a program slicer for programs with jump
// statements, reproducing Hiralal Agrawal's "On Slicing Programs with
// Jump Statements" (PLDI 1994).
//
// Conventional dependence-graph slicing never includes goto, break,
// continue or return statements — no statement is data or control
// dependent on a jump — so its slices of programs with jumps are
// wrong. This package implements the paper's repair: after the
// conventional slice is computed, jump statements are added whenever
// their nearest postdominator in the slice differs from their nearest
// lexical successor in the slice, using one extra, purely syntactic
// structure (the lexical successor tree) while leaving the flowgraph
// and the program dependence graph untouched.
//
// The facade wraps the internal packages behind a string-based API:
//
//	s, err := jumpslice.New(source)
//	res, err := s.Slice("positives", 15)          // Figure 7 algorithm
//	res, err := s.SliceWith(jumpslice.Conventional, "positives", 15)
//	fmt.Println(res.Text)                          // runnable subprogram
//
// The algorithms available through SliceWith cover the paper's three
// algorithms (Figures 7, 12 and 13), the conventional baseline, and
// the Section 5 related work (Ball–Horwitz, Lyle, Gallagher,
// Jiang–Zhou–Robson). Graphviz renderings of every derived structure
// are available through DOT.
package jumpslice

import (
	"fmt"

	"jumpslice/internal/baselines"
	"jumpslice/internal/core"
	"jumpslice/internal/dynslice"
	"jumpslice/internal/interp"
	"jumpslice/internal/lang"
	"jumpslice/internal/restructure"
	"jumpslice/internal/viz"
)

// Algorithm selects a slicing algorithm.
type Algorithm string

// The available algorithms.
const (
	// Conventional is jump-unaware PDG reachability (paper Section 2)
	// with the conditional-jump adaptation. Wrong on programs with
	// jumps; provided as the baseline it is.
	Conventional Algorithm = "conventional"
	// Agrawal is the paper's general algorithm (Figure 7). The
	// default.
	Agrawal Algorithm = "agrawal"
	// AgrawalLST is Figure 7 driven by lexical-successor-tree preorder
	// instead of postdominator-tree preorder; same slices.
	AgrawalLST Algorithm = "agrawal-lst"
	// Structured is the simplified algorithm for structured programs
	// (Figure 12). Errors on unstructured programs.
	Structured Algorithm = "structured"
	// Conservative is the approximation algorithm (Figure 13):
	// possibly larger slices, no tree traversals. Errors on
	// unstructured programs.
	Conservative Algorithm = "conservative"
	// BallHorwitz is the augmented-flowgraph baseline of Ball &
	// Horwitz and Choi & Ferrante; computes the same slices as
	// Agrawal.
	BallHorwitz Algorithm = "ball-horwitz"
	// Weiser is Weiser's original iterative-dataflow slicer — the
	// second jump-unaware baseline; computes the same slices as
	// Conventional through entirely different machinery.
	Weiser Algorithm = "weiser"
	// Lyle is Lyle's very conservative rule.
	Lyle Algorithm = "lyle"
	// Gallagher is Gallagher's rule (unsound on the paper's Figure
	// 16).
	Gallagher Algorithm = "gallagher"
	// JiangZhouRobson is a reconstruction of the Jiang–Zhou–Robson
	// rules (unsound on the paper's Figure 8).
	JiangZhouRobson Algorithm = "jzr"
)

// GraphKind selects a DOT rendering.
type GraphKind string

// The available graph renderings.
const (
	GraphCFG GraphKind = "cfg" // control flowgraph
	GraphPDT GraphKind = "pdt" // postdominator tree
	GraphLST GraphKind = "lst" // lexical successor tree
	GraphCDG GraphKind = "cdg" // control dependence graph
	GraphDDG GraphKind = "ddg" // data dependence graph
	GraphPDG GraphKind = "pdg" // program dependence graph
)

// Slicer analyzes one program and computes slices of it.
type Slicer struct {
	analysis *core.Analysis
}

// New parses source text and builds every structure slicing needs:
// the flowgraph, the postdominator tree, the dependence graphs and
// the lexical successor tree.
func New(source string) (*Slicer, error) {
	prog, err := lang.Parse(source)
	if err != nil {
		return nil, err
	}
	if len(prog.Procs) > 0 {
		return nil, fmt.Errorf("jumpslice: program declares procedures; the facade slices single-procedure programs")
	}
	a, err := core.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return &Slicer{analysis: a}, nil
}

// Structured reports whether every jump in the program is a
// structured jump (its target is one of its lexical successors) —
// the applicability condition of the Figure 12/13 algorithms.
func (s *Slicer) Structured() bool { return s.analysis.Structured() }

// Source returns the analyzed program, pretty-printed with line
// numbers.
func (s *Slicer) Source() string {
	return lang.Format(s.analysis.Prog, lang.PrintOptions{LineNumbers: true})
}

// Result is a computed slice.
type Result struct {
	// Algorithm that produced the slice.
	Algorithm Algorithm
	// Lines are the source lines of the slice's statements, sorted.
	Lines []int
	// Text is the materialized slice: a runnable subprogram printed
	// with the original line numbers, labels re-associated per the
	// paper's final step.
	Text string
	// Traversals counts postdominator-tree preorder passes (Figure 7
	// family only).
	Traversals int
	// JumpLines are the lines of jump statements the jump-aware phase
	// added beyond the conventional slice, in discovery order.
	JumpLines []int
	// RelabeledTo maps goto labels whose statement was cut to the
	// line their label re-attached to (0 = past the last statement).
	RelabeledTo map[string]int
}

// Slice computes the slice of (variable, line) with the paper's
// general algorithm (Figure 7).
func (s *Slicer) Slice(variable string, line int) (*Result, error) {
	return s.SliceWith(Agrawal, variable, line)
}

// coreSlice dispatches an algorithm by name.
func (s *Slicer) coreSlice(algo Algorithm, c core.Criterion) (*core.Slice, error) {
	run, ok := baselines.ByName[string(algo)]
	if !ok {
		return nil, fmt.Errorf("jumpslice: unknown algorithm %q", algo)
	}
	return run(s.analysis, c)
}

// SliceWith computes the slice of (variable, line) with the chosen
// algorithm.
func (s *Slicer) SliceWith(algo Algorithm, variable string, line int) (*Result, error) {
	c := core.Criterion{Var: variable, Line: line}
	sl, err := s.coreSlice(algo, c)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Algorithm:   algo,
		Lines:       sl.Lines(),
		Text:        sl.Format(),
		Traversals:  sl.Traversals,
		RelabeledTo: sl.RelabeledLines(),
	}
	for _, id := range sl.JumpsAdded {
		res.JumpLines = append(res.JumpLines, s.analysis.CFG.Nodes[id].Line)
	}
	return res, nil
}

// Explanation is a slice with its provenance: why each statement is
// in it.
type Explanation struct {
	// Result is the slice itself, exactly as Slice would return it.
	Result *Result
	// Reasons maps each source line of the slice to its reason
	// records, rendered as strings: "criterion", "data-dep from 8",
	// "control-dep from 3", "jump-rule(nearest-PD=3, nearest-LS=8)",
	// "cond-jump(pred=5)". Deterministic: per line, records are
	// deduplicated and ordered by node then kind.
	Reasons map[int][]string
	// Listing is the annotated slice listing — every slice line with
	// its source text and its reasons as a trailing comment.
	Listing string
}

// Explain computes the Figure 7 slice of (variable, line) together
// with per-statement provenance: for every statement of the slice, at
// least one machine-checkable reason record whose evidence is itself
// in the slice (or is the criterion). Jump-rule records carry the
// nearest-postdominator/nearest-lexical-successor pair observed when
// the jump was admitted.
func (s *Slicer) Explain(variable string, line int) (*Explanation, error) {
	return s.ExplainWith(Agrawal, variable, line)
}

// ExplainWith computes provenance for the chosen algorithm's slice.
// The paper's own algorithms (conventional, Figure 7/12/13 family,
// dynamic) yield complete provenance; the Section 5 baselines get
// best-effort dependence-edge records only.
func (s *Slicer) ExplainWith(algo Algorithm, variable string, line int) (*Explanation, error) {
	c := core.Criterion{Var: variable, Line: line}
	sl, err := s.coreSlice(algo, c)
	if err != nil {
		return nil, err
	}
	p, err := sl.Explain()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Algorithm:   algo,
		Lines:       sl.Lines(),
		Text:        sl.Format(),
		Traversals:  sl.Traversals,
		RelabeledTo: sl.RelabeledLines(),
	}
	for _, id := range sl.JumpsAdded {
		res.JumpLines = append(res.JumpLines, s.analysis.CFG.Nodes[id].Line)
	}
	return &Explanation{
		Result:  res,
		Reasons: p.LineReasons(),
		Listing: p.Listing(),
	}, nil
}

// Criterion names a slicing criterion for the batch API: the value of
// Var at Line.
type Criterion struct {
	Var  string
	Line int
}

// SliceAll computes the Figure 7 slice of every criterion in one
// batch. All criteria share the analysis's SCC-condensed dependence
// closure cache (built on first use and memoized per component), so
// slicing many criteria of one program is substantially cheaper than
// repeated Slice calls — the slices themselves are identical. Results
// are returned in criterion order.
func (s *Slicer) SliceAll(crits []Criterion) ([]*Result, error) {
	cc := make([]core.Criterion, len(crits))
	for i, c := range crits {
		cc[i] = core.Criterion{Var: c.Var, Line: c.Line}
	}
	slices, err := s.analysis.SliceAll(cc)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(slices))
	for i, sl := range slices {
		res := &Result{
			Algorithm:   Agrawal,
			Lines:       sl.Lines(),
			Text:        sl.Format(),
			Traversals:  sl.Traversals,
			RelabeledTo: sl.RelabeledLines(),
		}
		for _, id := range sl.JumpsAdded {
			res.JumpLines = append(res.JumpLines, s.analysis.CFG.Nodes[id].Line)
		}
		out[i] = res
	}
	return out, nil
}

// DynamicSlice computes the dynamic slice of (variable, line) for the
// run on the given input: only statements that actually influenced
// the criterion on that execution, with the paper's jump repair
// applied so the result is a runnable subprogram (see
// internal/dynslice for the construction).
func (s *Slicer) DynamicSlice(variable string, line int, input []int64) (*Result, error) {
	c := core.Criterion{Var: variable, Line: line}
	sl, err := dynslice.Slice(s.analysis, c, dynslice.Options{Input: input})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Algorithm:   "dynamic",
		Lines:       sl.Lines(),
		Text:        sl.Format(),
		Traversals:  sl.Traversals,
		RelabeledTo: sl.RelabeledLines(),
	}
	for _, id := range sl.JumpsAdded {
		res.JumpLines = append(res.JumpLines, s.analysis.CFG.Nodes[id].Line)
	}
	return res, nil
}

// ForwardSlice computes the forward (impact) slice: every statement
// the value of variable at line can affect. Forward slices are
// affected-statement sets, not runnable subprograms.
func (s *Slicer) ForwardSlice(variable string, line int) (*Result, error) {
	sl, err := s.analysis.Forward(core.Criterion{Var: variable, Line: line})
	if err != nil {
		return nil, err
	}
	return &Result{Algorithm: "forward", Lines: sl.Lines()}, nil
}

// Chop computes the statements on dependence paths from the source
// criterion to the target criterion.
func (s *Slicer) Chop(srcVar string, srcLine int, dstVar string, dstLine int) (*Result, error) {
	sl, err := s.analysis.Chop(
		core.Criterion{Var: srcVar, Line: srcLine},
		core.Criterion{Var: dstVar, Line: dstLine})
	if err != nil {
		return nil, err
	}
	return &Result{Algorithm: "chop", Lines: sl.Lines()}, nil
}

// AffectedWrites returns the lines of the write statements a change
// at (variable, line) can influence — the regression-test-selection
// query.
func (s *Slicer) AffectedWrites(variable string, line int) ([]int, error) {
	return s.analysis.AffectedWrites(core.Criterion{Var: variable, Line: line})
}

// Flatten produces the Choi–Ferrante-style executable slice: a flat
// program whose control flow is carried by synthesized gotos rather
// than the original jump statements (the second algorithm the paper's
// Section 5 discusses). The returned source reproduces the criterion
// observations of the original but is not a projection of it.
func (s *Slicer) Flatten(variable string, line int) (source string, synthesizedJumps int, err error) {
	c := core.Criterion{Var: variable, Line: line}
	ex, err := baselines.ChoiFerranteExecutable(s.analysis, c)
	if err != nil {
		return "", 0, err
	}
	return lang.Format(ex.Prog, lang.PrintOptions{}), ex.SynthesizedJumps, nil
}

// Restructure converts the program into an equivalent structured one
// (no gotos; the pc-loop transformation — the flowgraph-structuring
// pathway Ball & Horwitz sketch in the paper's Section 5). The
// Figure 12/13 algorithms apply to the result even when the original
// program was an arbitrary goto tangle.
func (s *Slicer) Restructure() (string, error) {
	flat, err := restructure.Program(s.analysis.Prog)
	if err != nil {
		return "", err
	}
	return lang.Format(flat, lang.PrintOptions{}), nil
}

// DOT renders one of the program's derived graphs in Graphviz format.
// When highlight is non-nil, its slice's nodes are shaded (the
// paper's figures shade slice members).
func (s *Slicer) DOT(kind GraphKind, highlight *Result) (string, error) {
	opts := viz.Options{LineLabels: true}
	if highlight != nil {
		opts.Highlight = map[int]bool{}
		lineSet := map[int]bool{}
		for _, l := range highlight.Lines {
			lineSet[l] = true
		}
		for _, n := range s.analysis.CFG.Nodes {
			if lineSet[n.Line] {
				opts.Highlight[n.ID] = true
			}
		}
	}
	switch kind {
	case GraphCFG:
		return viz.CFG(s.analysis.CFG, opts), nil
	case GraphPDT:
		return viz.Tree(s.analysis.CFG, s.analysis.PDT, opts), nil
	case GraphLST:
		return viz.LST(s.analysis.CFG, s.analysis.LST, opts), nil
	case GraphCDG:
		return viz.CDGGraph(s.analysis, opts), nil
	case GraphDDG:
		return viz.DDGGraph(s.analysis, opts), nil
	case GraphPDG:
		return viz.PDGGraph(s.analysis, opts), nil
	}
	return "", fmt.Errorf("jumpslice: unknown graph kind %q", kind)
}

// Run executes the program on the given input stream (consumed by
// read(); eof() reports its exhaustion) and returns the sequence of
// values written by write().
func (s *Slicer) Run(input []int64) ([]int64, error) {
	res, err := interp.RunCFG(s.analysis.CFG, interp.Options{Input: input})
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// RunSlice materializes a slice and executes it on the given input,
// returning the sequence of values the criterion variable takes at
// the criterion line — and, for comparison, the same sequence from
// the original program. Equal sequences on all inputs is Weiser's
// correctness condition for slices of terminating programs.
func (s *Slicer) RunSlice(algo Algorithm, variable string, line int, input []int64) (sliceObs, origObs []int64, err error) {
	c := core.Criterion{Var: variable, Line: line}
	sl, err := s.coreSlice(algo, c)
	if err != nil {
		return nil, nil, err
	}
	sliceObs, err = interp.Observe(sl.Materialize(), input, variable, line)
	if err != nil {
		return nil, nil, err
	}
	origObs, err = interp.Observe(s.analysis.Prog, input, variable, line)
	return sliceObs, origObs, err
}
