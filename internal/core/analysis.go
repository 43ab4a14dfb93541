// Package core implements the slicing algorithms of Agrawal's "On
// Slicing Programs with Jump Statements" (PLDI 1994):
//
//   - Conventional — program-dependence-graph reachability with the
//     paper's conditional-jump adaptation (Section 2 and Section 3,
//     second paragraph). Jump-unaware: never includes an unconditional
//     jump, and therefore wrong on programs with jumps.
//   - Agrawal — the general algorithm of Figure 7: repeated preorder
//     traversals of the postdominator tree add every jump whose
//     nearest postdominator in the slice differs from its nearest
//     lexical successor in the slice, closing the slice under the
//     dependences of each added jump.
//   - AgrawalStructured — the Figure 12 algorithm for structured
//     programs: a single traversal, candidates restricted to jumps
//     directly control dependent on a predicate already in the slice,
//     no dependence closure needed.
//   - AgrawalConservative — the Figure 13 algorithm: include every
//     jump directly control dependent on a predicate in the slice.
//     Needs neither the postdominator tree traversal nor the lexical
//     successor tree, at the cost of possibly larger slices.
//
// All four share an Analysis, which packages the flowgraph, the
// postdominator tree, the control/data/program dependence graphs and
// the lexical successor tree of one program. The paper's key selling
// point — the flowgraph and the PDG stay untouched; only the separate
// lexical successor tree is added — is visible in the types: every
// algorithm reads the same Analysis.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"jumpslice/internal/bits"
	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/dom"
	"jumpslice/internal/lang"
	"jumpslice/internal/lst"
	"jumpslice/internal/obs"
	"jumpslice/internal/pdg"
)

// Criterion is a slicing criterion (variable, line): "the value of Var
// at Line", e.g. positives on line 12.
type Criterion struct {
	Var  string
	Line int
}

// String renders the criterion as "<var>@<line>".
func (c Criterion) String() string { return fmt.Sprintf("%s@%d", c.Var, c.Line) }

// Analysis bundles every derived structure of one program. Build it
// once with Analyze, then compute any number of slices from it.
type Analysis struct {
	Prog *lang.Program
	CFG  *cfg.Graph
	// PDT is the postdominator tree, rooted at Exit.
	PDT *dom.Tree
	// CDG is the control dependence graph (Ferrante–Ottenstein–Warren
	// over the plain flowgraph).
	CDG *cdg.Graph
	// RD holds reaching definitions; DataDeps derive from it.
	RD *dataflow.ReachingDefs
	// PDG merges control and data dependence.
	PDG *pdg.Graph
	// LST is the lexical successor tree — the one extra structure the
	// paper's algorithm needs.
	LST *lst.Tree
	// Stmts is Prog's statement count (lang.CountStatements). Analyze
	// leaves it zero; a caller that has counted already, as one that
	// checks a size limit before analyzing does, records it here so a
	// cached analysis never walks its program again for it.
	Stmts int

	// live[n] reports whether node n is reachable from Entry. Dead
	// statements never execute, so the jump-detection phases consider
	// only live jumps; without this filter the Figure 7 test happily
	// adds jumps sitting in unreachable code (e.g. a second break
	// right after a break), which no other algorithm ever selects and
	// which cannot affect any criterion.
	live []bool

	// enclosingSwitch maps each node ID to the node ID of the switch
	// tag immediately enclosing its statement, or -1. It backs the
	// switch-enclosure invariant (see normalizeSlice): a C case body
	// statement can postdominate its switch's dispatch (fall-through
	// into default), in which case it is not control dependent on the
	// switch — yet a slice containing it without the switch is not a
	// projection, and the paper's lexical-successor test implicitly
	// assumes projections (footnote 2: deleting a compound deletes
	// its body). if and while bodies cannot postdominate their
	// predicates in structured code, so only switches need this.
	enclosingSwitch []int

	// Precomputed worklists for the jump-detection and normalization
	// phases. The Figure 7 traversal only ever acts on live jump
	// nodes, so the preorders are filtered to those once here instead
	// of re-scanning (and re-filtering) every tree node per traversal;
	// likewise normalizeSlice only acts on conditional-jump predicates
	// and on switch-enclosed statements, so those are listed once
	// instead of scanning all CFG nodes per fixpoint pass. Relative
	// order is preserved, so traversal results are unchanged.

	// jumpsPDT lists the live jump node IDs in postdominator-tree
	// preorder (Figure 7's traversal order); jumpsLST is its lexical-
	// successor-tree twin (the paper's alternative driver).
	jumpsPDT []int
	jumpsLST []int
	// condJumps lists each conditional-jump pair: an if-with-no-else
	// predicate and the single jump statement forming its body, in
	// ascending predicate node order.
	condJumps []condJumpPair
	// condJumpOf indexes condJumps by node: condJumpOf[p] is the jump
	// node of the conditional jump whose predicate is node p, or -1.
	// With enclosingSwitch it lets normalizeSlice check one node's
	// invariants in constant time.
	condJumpOf []int
	// switchNodes lists the node IDs with enclosingSwitch >= 0,
	// ascending.
	switchNodes []int
	// gotoNodes lists the goto statement nodes, in node order, for
	// label retargeting.
	gotoNodes []*cfg.Node

	// batch holds the lazily-built condensation of the invariant-
	// augmented dependence relation backing SliceAll (see batchEngine).
	// It sits behind a pointer so the condensation — and its sync.Once
	// — is shared by every Rebind view of this Analysis, and so the
	// Analysis struct itself stays free of locks and legal to copy.
	batch *batchState
	// set holds the program set behind ProgramSet, shared by every
	// Rebind view for the same reasons (see setState).
	set *setState

	// o is the observer every phase span and slicing call reports to:
	// the metrics registry and the request-scoped tracer, both nil
	// unless AnalyzeObservedContext or Rebind was given them. m holds
	// the instruments pre-resolved from o.Reg (see observe), so hot
	// paths pay a single nil-check per event when recording is
	// disabled; every trace emission is nil-checked inside the tracer,
	// so the untraced hot path pays the same single-branch cost.
	o obs.Observer
	m coreMetrics

	// ctx is the request context the Analysis was built under (nil
	// unless AnalyzeObservedContext attached a cancelable one), and
	// cancelf is the pre-bound cancellation callback handed to the
	// dependence-closure engines (nil when ctx is nil, which disables
	// their checks entirely). See cancel.go.
	ctx     context.Context
	cancelf func() error
}

// coreMetrics is the Analysis's pre-resolved instrument set. All
// fields are nil on a nil registry; every obs instrument method is
// nil-safe.
type coreMetrics struct {
	// slices counts slicing calls (any algorithm in this package).
	slices *obs.Counter
	// traversals counts fixpoint passes of the jump-detection loops
	// (Figures 7, 12 and 13), including each final unproductive one.
	traversals *obs.Counter
	// jumpsExamined counts candidate jumps tested by the nearest-
	// postdominator/lexical-successor rule; jumpsAdmitted counts the
	// tests that admitted the jump into the slice.
	jumpsExamined *obs.Counter
	jumpsAdmitted *obs.Counter
	// sliceNodes is the distribution of final slice sizes (node
	// count, Entry included) — the closure-size visibility the batch
	// engine's memoization is judged by.
	sliceNodes *obs.Histogram
	// cancellations counts cooperative cancellations honoured: each
	// time a canceled context aborted an analysis or slicing call.
	cancellations *obs.Counter
	// closure is what the batch engine reports each condensation
	// lookup to: the closure-cache counters and this view's tracer.
	closure pdg.Instruments
}

// observe binds the Analysis to o. The instruments are re-resolved
// only when the registry changes — m always holds a.o.Reg's — so
// rebinding a cached analysis to another request of the daemon whose
// registry it was built with resolves nothing.
func (a *Analysis) observe(o obs.Observer) {
	if o.Reg != a.o.Reg {
		r, m := o.Reg, &a.m
		m.slices = r.Counter("core.slices")
		m.traversals = r.Counter("core.fixpoint_traversals")
		m.jumpsExamined = r.Counter("core.jumps_examined")
		m.jumpsAdmitted = r.Counter("core.jumps_admitted")
		m.sliceNodes = r.Histogram("core.slice_nodes", obs.UnitCount)
		m.cancellations = r.Counter("core.cancellations")
		m.closure.Requests = r.Counter("pdg.closure_requests")
		m.closure.Hits = r.Counter("pdg.closure_hits")
		m.closure.Builds = r.Counter("pdg.closure_builds")
	}
	a.o = o
	a.m.closure.Tracer = o.Tr
}

// condJumpPair records a conditional jump statement: the predicate
// node of "if (e) goto L" and its jump node.
type condJumpPair struct {
	pred, jump int
}

// batchState is the shared lazily-built batch-engine state of one
// Analysis and all its Rebind views. The condensation sits behind an
// atomic pointer for two reasons: Reanalyze pre-seeds it with a
// patched condensation before the Analysis is shared (the once then
// observes the seed and skips its build), and Reanalyze peeks at a
// *previous* Analysis's condensation while other views of it may be
// slicing concurrently.
type batchState struct {
	once sync.Once
	cond atomic.Pointer[pdg.Condensation]
}

// Analyze parses nothing: it takes an already-parsed program and
// derives the flowgraph, postdominator tree, dependence graphs, and
// lexical successor tree. Equivalent to AnalyzeObservedContext with
// no context, registry or tracer.
func Analyze(prog *lang.Program) (*Analysis, error) {
	return AnalyzeObservedContext(context.Background(), prog, nil, nil)
}

// AnalyzeObservedContext is Analyze under a request context, a
// metrics registry and a tracer (nil for either means none), folded
// into one obs.Observer. Each construction phase is timed by one
// "phase.analyze.*" span whose duration feeds both sinks (cfg →
// postdominators → cdg → dataflow → pdg → lst → worklists; the lazy
// batch condensation reports under "phase.analyze.condense"), and
// every slicing call on the result reports its traversals, jump
// admissions with their Figure 7 evidence, closure-cache activity and
// slice sizes to both.
//
// ctx is checked at every phase boundary and, cooperatively, by every
// slicing call (see cancel.go for the cadences). When it is canceled
// or its deadline expires, the in-flight call journals a cancellation
// trace event, counts it under core.cancellations, and returns an
// error wrapping ctx.Err(). A context that can never be canceled
// disables the checks.
//
// A program that declares procedures is analyzed per procedure and
// its system dependence graph built (see ProgramSet); the result
// carries the whole program in Prog and the main body's structures,
// and only the sdg slicer applies to it.
func AnalyzeObservedContext(ctx context.Context, prog *lang.Program, reg *obs.Registry, tr *obs.Tracer) (*Analysis, error) {
	o := obs.Observer{Reg: reg, Tr: tr}
	if len(prog.Procs) > 0 {
		return analyzeProcs(ctx, prog, o)
	}
	defer o.StartSpan("phase.analyze").End() // on every return path
	sp := o.StartSpan("phase.analyze.cfg")
	g, err := cfg.Build(prog)
	sp.End()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Prog:  prog,
		CFG:   g,
		batch: &batchState{},
		set:   &setState{},
	}
	a.observe(o)
	a.bindContext(ctx)
	if err := a.checkCancel("analyze"); err != nil {
		return nil, err
	}
	sp = o.StartSpan("phase.analyze.postdominators")
	a.PDT = dom.PostDominators(g, g.Exit.ID)
	sp.End()
	if err := a.checkCancel("analyze"); err != nil {
		return nil, err
	}
	sp = o.StartSpan("phase.analyze.cdg")
	a.CDG = cdg.Build(g, a.PDT)
	sp.End()
	if err := a.checkCancel("analyze"); err != nil {
		return nil, err
	}
	sp = o.StartSpan("phase.analyze.dataflow")
	a.RD = dataflow.Reach(g)
	sp.End()
	if err := a.checkCancel("analyze"); err != nil {
		return nil, err
	}
	sp = o.StartSpan("phase.analyze.pdg")
	a.PDG = pdg.Build(g, a.CDG, a.RD)
	sp.End()
	if err := a.checkCancel("analyze"); err != nil {
		return nil, err
	}
	sp = o.StartSpan("phase.analyze.lst")
	a.LST = lst.Build(g)
	sp.End()
	if err := a.checkCancel("analyze"); err != nil {
		return nil, err
	}
	sp = o.StartSpan("phase.analyze.worklists")
	a.live = g.Reachable()
	a.enclosingSwitch = make([]int, len(g.Nodes))
	for i := range a.enclosingSwitch {
		a.enclosingSwitch[i] = -1
	}
	var record func(s lang.Stmt, sw int)
	record = func(s lang.Stmt, sw int) {
		switch s := s.(type) {
		case nil:
		case *lang.LabeledStmt:
			record(s.Stmt, sw)
		case *lang.BlockStmt:
			for _, st := range s.List {
				record(st, sw)
			}
		case *lang.IfStmt:
			a.enclosingSwitch[g.NodeFor(s).ID] = sw
			record(s.Then, sw)
			record(s.Else, sw)
		case *lang.WhileStmt:
			a.enclosingSwitch[g.NodeFor(s).ID] = sw
			record(s.Body, sw)
		case *lang.SwitchStmt:
			n := g.NodeFor(s)
			a.enclosingSwitch[n.ID] = sw
			for _, cc := range s.Cases {
				for _, st := range cc.Body {
					record(st, n.ID)
				}
			}
		default:
			if n := g.NodeFor(s); n != nil {
				a.enclosingSwitch[n.ID] = sw
			}
		}
	}
	for _, s := range prog.Body {
		record(s, -1)
	}
	a.jumpsPDT = a.filterLiveJumps(a.PDT.Preorder())
	a.jumpsLST = a.filterLiveJumps(a.LST.Preorder())
	a.condJumpOf = make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		a.condJumpOf[n.ID] = -1
		if n.Kind == cfg.KindPredicate {
			if j := a.conditionalJumpOf(n); j != nil {
				a.condJumps = append(a.condJumps, condJumpPair{n.ID, j.ID})
				a.condJumpOf[n.ID] = j.ID
			}
		}
		if n.Kind == cfg.KindGoto {
			a.gotoNodes = append(a.gotoNodes, n)
		}
	}
	for id, sw := range a.enclosingSwitch {
		if sw >= 0 {
			a.switchNodes = append(a.switchNodes, id)
		}
	}
	sp.End()
	return a, nil
}

// filterLiveJumps projects a tree preorder onto the live jump nodes,
// preserving order — the only nodes the Figure 7 traversals act on.
func (a *Analysis) filterLiveJumps(order []int) []int {
	var out []int
	for _, v := range order {
		if a.CFG.Nodes[v].Kind.IsJump() && a.live[v] {
			out = append(out, v)
		}
	}
	return out
}

// MustAnalyze is Analyze but panics on error, for known-good corpus
// programs.
func MustAnalyze(prog *lang.Program) *Analysis {
	a, err := Analyze(prog)
	if err != nil {
		panic("core.MustAnalyze: " + err.Error())
	}
	return a
}

// Structured reports whether the program is structured in the paper's
// Section 4 sense: every jump statement's target is one of its lexical
// successors. break, continue and return always satisfy this; gotos
// satisfy it exactly when they transfer control forward to a statement
// their own control would eventually fall through to.
func (a *Analysis) Structured() bool {
	for _, j := range a.CFG.Jumps() {
		if j.Target == nil {
			continue // unresolved; cannot happen after a successful Build
		}
		if j.Target.ID == a.CFG.Exit.ID {
			continue // returns target Exit, the LST root: always a successor
		}
		if !a.LST.IsSuccessor(j.Target.ID, j.ID) {
			return false
		}
	}
	return true
}

// Slice is the result of a slicing algorithm.
type Slice struct {
	Analysis  *Analysis
	Criterion Criterion
	// Algorithm names the producing algorithm ("conventional",
	// "agrawal", "agrawal-structured", "agrawal-conservative", or a
	// baseline's name).
	Algorithm string
	// Nodes is the set of flowgraph node IDs in the slice (Entry may
	// be present from control dependence closure; Exit never is).
	Nodes *bits.Set
	// Traversals is the number of postdominator tree preorder
	// traversals performed, counting the final unproductive one
	// (Figure 7 only; 1 for Figure 12, 0 otherwise).
	Traversals int
	// JumpsAdded lists the node IDs of jump statements the jump-aware
	// phase added beyond the conventional slice, in addition order.
	JumpsAdded []int
	// JumpRules records, parallel to JumpsAdded, the evidence the
	// nearest-postdominator/lexical-successor rule saw at the moment
	// each jump was admitted (Figures 7 and 12; empty for algorithms
	// that admit jumps without the rule, e.g. Figure 13). Captured at
	// admission time because the final slice can shift both trees'
	// nearest-in-slice answers — the paper's Figure 3 rejection of
	// node 11 happens exactly because an earlier admission moved them.
	JumpRules []JumpRule
	// Relabeled maps goto labels whose labeled statement is not in the
	// slice to the node ID the label is re-attached to (the labeled
	// statement's nearest postdominator in the slice; Exit means "end
	// of program").
	Relabeled map[string]int
}

// JumpRule is the admission evidence of one jump added by the paper's
// rule: the jump's nearest postdominator in the slice and nearest
// lexical successor in the slice differed when it was examined. Node
// IDs; either may be the Exit node ("end of program").
type JumpRule struct {
	NearestPD int
	NearestLS int
}

// Has reports whether the flowgraph node with the given ID is in the
// slice.
func (s *Slice) Has(id int) bool { return s.Nodes.Has(id) }

// Lines returns the sorted source lines of the slice's statements
// (Entry and Exit excluded). This is the representation the paper's
// figures use.
//
// Node IDs follow statement preorder, so in a parsed program the
// lines come out of the node set already ascending, and a repeat (a
// conditional jump's predicate and jump share a line) is always the
// previous line; one pass with one allocation suffices. A program
// whose positions do not ascend with its statements is sorted after.
func (s *Slice) Lines() []int {
	nodes := s.Analysis.CFG.Nodes
	lines := make([]int, 0, s.Nodes.Len())
	ascending := true
	for id := s.Nodes.NextSet(0); id >= 0; id = s.Nodes.NextSet(id + 1) {
		l := nodes[id].Line
		if l <= 0 {
			continue
		}
		if k := len(lines); k > 0 {
			if l == lines[k-1] {
				continue
			}
			ascending = ascending && l > lines[k-1]
		}
		lines = append(lines, l)
	}
	if !ascending {
		slices.Sort(lines)
		lines = slices.Compact(lines)
	}
	return lines
}

// StatementNodes returns the slice's node IDs excluding Entry/Exit, in
// ascending order.
func (s *Slice) StatementNodes() []int {
	var out []int
	for id := s.Nodes.NextSet(0); id >= 0; id = s.Nodes.NextSet(id + 1) {
		n := s.Analysis.CFG.Nodes[id]
		if n.Kind != cfg.KindEntry && n.Kind != cfg.KindExit {
			out = append(out, id)
		}
	}
	return out
}

// LiveStatementNodes returns the slice's node IDs excluding
// Entry/Exit and excluding nodes in dead (entry-unreachable) code.
// Dead statements never execute, so two slices with equal live parts
// are behaviourally identical; the Agrawal/Ball–Horwitz equivalence
// is stated on live parts because the augmented flowgraph gives dead
// code different connectivity than the plain one.
func (s *Slice) LiveStatementNodes() []int {
	var out []int
	for id := s.Nodes.NextSet(0); id >= 0; id = s.Nodes.NextSet(id + 1) {
		n := s.Analysis.CFG.Nodes[id]
		if n.Kind != cfg.KindEntry && n.Kind != cfg.KindExit && s.Analysis.live[id] {
			out = append(out, id)
		}
	}
	return out
}

// RelabeledLines translates Relabeled to source lines: label → line of
// the statement the label is re-attached to, with 0 meaning end of
// program.
func (s *Slice) RelabeledLines() map[string]int {
	out := map[string]int{}
	for l, id := range s.Relabeled {
		out[l] = s.Analysis.CFG.Nodes[id].Line
	}
	return out
}

// CriterionNodes resolves a criterion to its PDG seed node IDs; it is
// the entry point baseline algorithms share with the in-package
// slicers.
func (a *Analysis) CriterionNodes(c Criterion) ([]int, error) {
	return a.resolveCriterion(c)
}

// resolveCriterion maps a criterion to PDG seed nodes. When the
// statement(s) at the criterion line use or define the variable, those
// statements seed the closure (the usual case: "write(positives)").
// Otherwise the seeds are the definitions of the variable reaching the
// line, which matches Weiser's "value of var at loc" reading.
//
// It is the one gate every intraprocedural algorithm passes: an
// analysis of a program with procedures is refused here.
func (a *Analysis) resolveCriterion(c Criterion) ([]int, error) {
	if len(a.Prog.Procs) > 0 {
		return nil, fmt.Errorf("core: program declares procedures; only the sdg algorithm (algo=sdg) slices it")
	}
	nodes := a.CFG.NodesAtLine(c.Line)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("core: no statement at line %d", c.Line)
	}
	var seeds []int
	for _, n := range nodes {
		if n.Stmt == nil {
			continue
		}
		if lang.Def(n.Stmt) == c.Var {
			seeds = append(seeds, n.ID)
			continue
		}
		for _, u := range lang.Uses(n.Stmt) {
			if u == c.Var {
				seeds = append(seeds, n.ID)
				break
			}
		}
	}
	if len(seeds) > 0 {
		return seeds, nil
	}
	// The line neither uses nor defines the variable: slice on the
	// definitions reaching it.
	seeds = a.RD.ReachingDefsOf(nodes[0].ID, c.Var)
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: variable %q has no reaching definition at line %d and is not used there", c.Var, c.Line)
	}
	return seeds, nil
}

// Live reports whether the node is reachable from Entry.
func (a *Analysis) Live(id int) bool { return a.live[id] }

// The nearest-in-slice walks below follow the trees' parent arrays
// directly instead of the callback Walk helpers: they run for every
// candidate jump on every traversal, and the direct loops keep the
// Figure 7 inner loop free of closure allocations. The tree root
// (Exit) counts as always in the slice, so each walk terminates with
// a well-defined answer.

// nearestPostdomInSlice returns the nearest strict postdominator of v
// present in set (Exit if none). Nodes with undefined postdominators
// (on inescapable cycles) report Exit.
func (a *Analysis) nearestPostdomInSlice(v int, set *bits.Set) int {
	root := a.CFG.Exit.ID
	if !a.PDT.Reachable(v) {
		return root
	}
	idom := a.PDT.Idom
	for v != root {
		v = idom[v]
		if v == root || set.Has(v) {
			break
		}
	}
	return v
}

// nearestLexInSlice returns the nearest proper lexical successor of v
// present in set (Exit if none).
func (a *Analysis) nearestLexInSlice(v int, set *bits.Set) int {
	root := a.CFG.Exit.ID
	parent := a.LST.Parent
	for v != root {
		v = parent[v]
		if v == root || set.Has(v) {
			break
		}
	}
	return v
}
