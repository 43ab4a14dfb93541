// Command slicer computes program slices from the command line.
//
// Usage:
//
//	slicer -var positives -line 15 [-algo agrawal] [flags] prog.mc
//
// The program is read from the named file, or from standard input when
// no file is given. The slicing criterion is (-var, -line), exactly as
// in the paper: "the slice with respect to positives on line 15".
//
// Algorithms (-algo):
//
//	conventional   PDG reachability (jump-unaware; paper Section 2)
//	weiser         Weiser's iterative dataflow algorithm (jump-unaware)
//	agrawal        the paper's general algorithm (Figure 7), default
//	agrawal-lst    Figure 7 driven by the lexical successor tree
//	structured     the Figure 12 algorithm (structured programs only)
//	conservative   the Figure 13 algorithm (structured programs only)
//	ball-horwitz   the augmented-PDG baseline of Ball & Horwitz
//	lyle           Lyle's conservative rule
//	gallagher      Gallagher's rule
//	jzr            the Jiang–Zhou–Robson rules (reconstruction)
//	dynamic        dynamic slice of the run on -input (extension)
//
// A separate mode, -flatten, prints the Choi–Ferrante-style executable
// slice: a flat program with synthesized gotos instead of the original
// jump statements (Section 5's second algorithm).
//
// Output modes:
//
//	default        the materialized slice, with original line numbers
//	-lines         just the slice's statement line numbers
//	-graph KIND    a Graphviz DOT rendering (cfg, pdt, lst, cdg, ddg,
//	               pdg) with the slice's nodes highlighted
//	-stats         traversal counts, jumps added, retargeted labels
//	-explain       each slice line annotated with its provenance
//	               records: criterion, data-dep from N, control-dep
//	               from N, jump-rule(nearest-PD=P, nearest-LS=L), ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sort"
	"strconv"

	"jumpslice/internal/baselines"
	"jumpslice/internal/core"
	"jumpslice/internal/dynslice"
	"jumpslice/internal/lang"
	"jumpslice/internal/restructure"
	"jumpslice/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slicer:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slicer", flag.ContinueOnError)
	varName := fs.String("var", "", "criterion variable (required)")
	line := fs.Int("line", 0, "criterion line (required)")
	algo := fs.String("algo", "agrawal", "slicing algorithm")
	lines := fs.Bool("lines", false, "print only the slice's line numbers")
	graph := fs.String("graph", "", "emit a DOT graph instead: cfg|pdt|lst|cdg|ddg|pdg")
	stats := fs.Bool("stats", false, "print traversal and jump statistics")
	explain := fs.Bool("explain", false, "annotate each slice line with its provenance records")
	input := fs.String("input", "", "comma-separated input stream for -algo dynamic, e.g. \"3,-1,4\"")
	flatten := fs.Bool("flatten", false, "print the Choi–Ferrante executable slice (flat, synthesized gotos)")
	restructureFlag := fs.Bool("restructure", false, "print the program restructured into goto-free pc-loop form (no slicing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *varName == "" || *line <= 0 {
		return fmt.Errorf("both -var and -line are required")
	}

	var src []byte
	var err error
	switch fs.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(fs.Arg(0))
	default:
		return fmt.Errorf("at most one input file")
	}
	if err != nil {
		return err
	}

	prog, err := lang.Parse(string(src))
	if err != nil {
		return err
	}
	c := core.Criterion{Var: *varName, Line: *line}
	a, err := core.Analyze(prog)
	if err != nil {
		return err
	}

	// The SDG algorithm is the only one accepting programs with
	// procedure declarations.
	if *algo == "sdg" {
		if *graph != "" || *flatten || *restructureFlag {
			return fmt.Errorf("-graph, -flatten and -restructure are not supported with -algo sdg")
		}
		return runSDG(out, a, c, *lines, *stats, *explain)
	}

	if *restructureFlag {
		flat, err := restructure.Program(prog)
		if err != nil {
			return err
		}
		fmt.Fprint(out, lang.Format(flat, lang.PrintOptions{}))
		return nil
	}

	if *flatten {
		ex, err := baselines.ChoiFerranteExecutable(a, c)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "// executable slice (Choi–Ferrante style) w.r.t. %s; %d synthesized jumps\n",
			c, ex.SynthesizedJumps)
		fmt.Fprint(out, lang.Format(ex.Prog, lang.PrintOptions{}))
		return nil
	}

	s, err := runAlgo(a, c, *algo, *input)
	if err != nil {
		return err
	}

	if *graph != "" {
		opts := viz.Options{
			Title:     fmt.Sprintf("%s slice for %s", s.Algorithm, c),
			Highlight: viz.SliceHighlight(s),
		}
		var dot string
		switch *graph {
		case "cfg":
			dot = viz.CFG(a.CFG, opts)
		case "pdt":
			dot = viz.Tree(a.CFG, a.PDT, opts)
		case "lst":
			dot = viz.LST(a.CFG, a.LST, opts)
		case "cdg":
			dot = viz.CDGGraph(a, opts)
		case "ddg":
			dot = viz.DDGGraph(a, opts)
		case "pdg":
			dot = viz.PDGGraph(a, opts)
		default:
			return fmt.Errorf("unknown graph kind %q", *graph)
		}
		fmt.Fprint(out, dot)
		return nil
	}

	if *lines {
		var parts []string
		for _, l := range s.Lines() {
			parts = append(parts, fmt.Sprintf("%d", l))
		}
		fmt.Fprintln(out, strings.Join(parts, " "))
		return nil
	}

	if *explain {
		p, err := s.Explain()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "// %s slice with respect to %s, annotated with provenance\n", s.Algorithm, c)
		fmt.Fprint(out, p.Listing())
		if *stats {
			printStats(out, s)
		}
		return nil
	}

	fmt.Fprintf(out, "// %s slice with respect to %s\n", s.Algorithm, c)
	fmt.Fprint(out, s.Format())
	if *stats {
		printStats(out, s)
	}
	return nil
}

// runSDG computes and prints the interprocedural (HRB two-pass) slice.
func runSDG(out io.Writer, a *core.Analysis, c core.Criterion, lines, stats, explain bool) error {
	ps, err := a.ProgramSet()
	if err != nil {
		return err
	}
	s, err := ps.SliceInterproc(c)
	if err != nil {
		return err
	}
	if lines {
		var parts []string
		for _, l := range s.Lines() {
			parts = append(parts, fmt.Sprintf("%d", l))
		}
		fmt.Fprintln(out, strings.Join(parts, " "))
		return nil
	}
	fmt.Fprintf(out, "// sdg slice with respect to %s\n", c)
	fmt.Fprint(out, s.Format())
	if explain {
		reasons := s.EdgeReasons()
		var rlines []int
		for l := range reasons {
			rlines = append(rlines, l)
		}
		sort.Ints(rlines)
		fmt.Fprintf(out, "\n// interprocedural edges into each line:\n")
		for _, l := range rlines {
			for _, r := range reasons[l] {
				fmt.Fprintf(out, "// line %d: %s\n", l, r)
			}
		}
	}
	if stats {
		st := ps.SDG.Stats()
		fmt.Fprintf(out, "\n// traversals: %d\n", s.Traversals)
		fmt.Fprintf(out, "// jumps added beyond conventional: %d\n", s.JumpsAdded)
		fmt.Fprintf(out, "// sdg: %d procs, %d vertices, %d summary edges (%d worklist rounds)\n",
			st.Procs, st.Verts, st.SummaryEdges, st.SummaryRounds)
	}
	return nil
}

// printStats prints the -stats trailer.
func printStats(out io.Writer, s *core.Slice) {
	fmt.Fprintf(out, "\n// traversals: %d\n", s.Traversals)
	fmt.Fprintf(out, "// jumps added beyond conventional: %d\n", len(s.JumpsAdded))
	for label, l := range s.RelabeledLines() {
		if l == 0 {
			fmt.Fprintf(out, "// label %s re-attached past the last statement\n", label)
		} else {
			fmt.Fprintf(out, "// label %s re-attached to line %d\n", label, l)
		}
	}
}

// runAlgo dispatches the algorithm by name.
func runAlgo(a *core.Analysis, c core.Criterion, algo, input string) (*core.Slice, error) {
	switch algo {
	case "dynamic":
		in, err := parseInput(input)
		if err != nil {
			return nil, err
		}
		return dynslice.Slice(a, c, dynslice.Options{Input: in})
	case "conventional":
		return a.Conventional(c)
	case "agrawal":
		return a.Agrawal(c)
	case "agrawal-lst":
		return a.AgrawalLST(c)
	case "structured":
		return a.AgrawalStructured(c)
	case "conservative":
		return a.AgrawalConservative(c)
	case "weiser":
		return baselines.Weiser(a, c)
	case "ball-horwitz":
		return baselines.BallHorwitz(a, c)
	case "lyle":
		return baselines.Lyle(a, c)
	case "gallagher":
		return baselines.Gallagher(a, c)
	case "jzr":
		return baselines.JiangZhouRobson(a, c)
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// parseInput parses "3,-1,4" into an input stream; empty means no
// input.
func parseInput(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -input element %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
