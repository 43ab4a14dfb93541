// Package sdg builds the system dependence graph of Horwitz, Reps &
// Binkley (HRB) over the per-procedure analyses the core package
// already computes, and answers the pass-filtered backward
// reachability queries their two-pass interprocedural slicing
// algorithm needs.
//
// Each procedure contributes one vertex per flowgraph node (including
// Entry and Exit) plus the HRB parameter vertices: a formal-in and
// formal-out per parameter at the procedure's entry, and an actual-in
// per argument and actual-out per returned argument at every call
// site. Parameter passing is value-result: every argument is copied
// in, and every plain-identifier argument is copied back out, so an
// actual-out exists exactly for the identifier arguments (for a
// variable repeated as several arguments, the last occurrence wins —
// see lang.CallCopyOuts).
//
// Edges are stored backwards — deps[v] lists the vertices v depends
// on — because slicing only ever walks them backwards:
//
//   - Control: statement → its control-dependence parents, and every
//     parameter vertex → the vertex it is anchored to (actuals → the
//     call statement, formals → the procedure's entry);
//   - Data: classic flow dependence via reaching definitions, with
//     definitions made at a call node redirected to that call's
//     actual-out vertex for the variable;
//   - Invariant: the two slice invariants the core engines encode as
//     extra edges (predicate → its conditional jump, statement → its
//     enclosing switch tag), baked in so closures over this graph are
//     normalized by construction;
//   - Call: callee entry → call-site statement;
//   - ParamIn: formal-in → actual-in, at every call site;
//   - ParamOut: actual-out → formal-out;
//   - Summary: actual-out → actual-in at the same call site,
//     discovered by the ComputeSummaries worklist (transitive
//     dependence through the callee along same-level realizable
//     paths).
//
// The two-pass slice is then two filtered closures: pass one ignores
// ParamOut edges (it never descends into callees, crossing call sites
// via Summary edges and ascending to callers), pass two ignores Call
// and ParamIn edges (it never re-ascends). Summary computation itself
// uses the same-level filter, which ignores all three.
package sdg

import (
	"fmt"
	"sort"

	"jumpslice/internal/bits"
	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/lang"
)

// EdgeKind labels a dependence edge; the names appear verbatim in
// explain payloads and diagnostics.
type EdgeKind uint8

const (
	EdgeControl EdgeKind = iota
	EdgeData
	EdgeInvariant
	EdgeCall
	EdgeParamIn
	EdgeParamOut
	EdgeSummary
)

var edgeNames = [...]string{
	EdgeControl:   "control",
	EdgeData:      "data",
	EdgeInvariant: "invariant",
	EdgeCall:      "call",
	EdgeParamIn:   "param-in",
	EdgeParamOut:  "param-out",
	EdgeSummary:   "summary",
}

func (k EdgeKind) String() string { return edgeNames[k] }

// NumEdgeKinds is the number of distinct edge kinds, for stats arrays.
const NumEdgeKinds = len(edgeNames)

// Pass selects which edge kinds a traversal ignores.
type Pass uint8

const (
	// PassOne is the first HRB pass: ascend to callers, never descend
	// (ParamOut edges are ignored).
	PassOne Pass = iota
	// PassTwo is the second HRB pass: descend into callees, never
	// re-ascend (Call and ParamIn edges are ignored).
	PassTwo
	// SameLevel never crosses a procedure boundary at all (Call,
	// ParamIn, and ParamOut are ignored); it is the traversal summary
	// computation uses.
	SameLevel
)

func (p Pass) skips(k EdgeKind) bool {
	switch p {
	case PassOne:
		return k == EdgeParamOut
	case PassTwo:
		return k == EdgeCall || k == EdgeParamIn
	case SameLevel:
		return k == EdgeCall || k == EdgeParamIn || k == EdgeParamOut
	}
	return false
}

// VertKind classifies a vertex.
type VertKind uint8

const (
	VertStmt VertKind = iota
	VertFormalIn
	VertFormalOut
	VertActualIn
	VertActualOut
)

var vertNames = [...]string{
	VertStmt:      "stmt",
	VertFormalIn:  "formal-in",
	VertFormalOut: "formal-out",
	VertActualIn:  "actual-in",
	VertActualOut: "actual-out",
}

func (k VertKind) String() string { return vertNames[k] }

// Vertex is one SDG vertex. Node is the local flowgraph node ID: the
// statement's own node for VertStmt, the call node for actuals, and
// the procedure's entry node for formals. Index is the parameter
// index for formals and the argument index for actuals (-1 for
// VertStmt). Var is the variable a formal or actual-out carries.
type Vertex struct {
	Kind  VertKind
	Proc  int
	Node  int
	Index int
	Var   string
}

// Dep is one backward dependence edge: the owning vertex depends on
// To.
type Dep struct {
	To   int
	Kind EdgeKind
}

// Site is a call site: the calling procedure's index and the call
// statement's node ID in that procedure's flowgraph.
type Site struct {
	Proc int
	Node int
}

// ProcInfo is the per-procedure input to Build: the analyses core
// already ran on the procedure body, plus the per-node edge tables of
// its slice invariants (each Extra table maps a node to one further
// dependence target, or -1 for none), the same edges every core
// closure walks.
type ProcInfo struct {
	Name     string
	Params   []string
	DeclLine int // source line of the proc declaration; 0 for main
	CFG      *cfg.Graph
	CDG      *cdg.Graph
	RD       *dataflow.ReachingDefs
	Extra    [][]int
}

// Graph is the system dependence graph.
type Graph struct {
	Procs []*ProcInfo
	Verts []Vertex

	deps [][]Dep

	stmtVert     [][]int                  // [proc][node] -> vertex
	formalIn     [][]int                  // [proc][param] -> vertex
	formalOut    [][]int                  // [proc][param] -> vertex
	actualIn     [][][]int                // [proc][node] -> per-arg vertices (nil off calls)
	actualOutIdx []map[int]map[int]int    // [proc][call node][arg index] -> vertex
	actualOutVar []map[int]map[string]int // [proc][call node][var] -> vertex
	argVars      []map[int][][]string     // [proc][call node] -> per-arg variable sets
	calleeOf     []map[int]int            // [proc][call node] -> callee proc
	sites        [][]Site                 // [callee] -> call sites
	byName       map[string]int

	edgeCount [NumEdgeKinds]int

	summariesDone bool
	summaryRounds int
}

// Stats reports graph size for metrics and explain payloads.
type Stats struct {
	Procs         int
	Verts         int
	Edges         map[string]int
	SummaryEdges  int
	SummaryRounds int
}

// cancelCheckVerts is the cadence of cooperative cancellation checks
// inside closure walks, mirroring the pdg package.
const cancelCheckVerts = 1024

// Build constructs the SDG. Summary edges are NOT computed here —
// call ComputeSummaries before slicing; keeping it separate lets the
// caller cache the (comparatively expensive) summary fixpoint across
// slices of the same program set.
func Build(procs []*ProcInfo) (*Graph, error) {
	g := &Graph{
		Procs:        procs,
		stmtVert:     make([][]int, len(procs)),
		formalIn:     make([][]int, len(procs)),
		formalOut:    make([][]int, len(procs)),
		actualIn:     make([][][]int, len(procs)),
		actualOutIdx: make([]map[int]map[int]int, len(procs)),
		actualOutVar: make([]map[int]map[string]int, len(procs)),
		argVars:      make([]map[int][][]string, len(procs)),
		calleeOf:     make([]map[int]int, len(procs)),
		sites:        make([][]Site, len(procs)),
		byName:       map[string]int{},
	}
	for i, p := range procs {
		if p.Name != "" {
			g.byName[p.Name] = i
		}
	}
	if err := g.allocVerts(); err != nil {
		return nil, err
	}
	g.deps = make([][]Dep, len(g.Verts))
	g.buildEdges()
	return g, nil
}

// allocVerts assigns vertex IDs: per procedure, statement vertices in
// node order, then formals, then actuals per call node in node order.
// The layout is deterministic, which the daemon's byte-identical
// response caching relies on transitively.
func (g *Graph) allocVerts() error {
	add := func(v Vertex) int {
		g.Verts = append(g.Verts, v)
		return len(g.Verts) - 1
	}
	for pi, p := range g.Procs {
		g.stmtVert[pi] = make([]int, p.CFG.NumNodes())
		for _, n := range p.CFG.Nodes {
			g.stmtVert[pi][n.ID] = add(Vertex{Kind: VertStmt, Proc: pi, Node: n.ID, Index: -1})
		}
		g.formalIn[pi] = make([]int, len(p.Params))
		g.formalOut[pi] = make([]int, len(p.Params))
		entryID := p.CFG.Entry.ID
		for j, param := range p.Params {
			g.formalIn[pi][j] = add(Vertex{Kind: VertFormalIn, Proc: pi, Node: entryID, Index: j, Var: param})
			g.formalOut[pi][j] = add(Vertex{Kind: VertFormalOut, Proc: pi, Node: entryID, Index: j, Var: param})
		}
		g.actualIn[pi] = make([][]int, p.CFG.NumNodes())
		g.actualOutIdx[pi] = map[int]map[int]int{}
		g.actualOutVar[pi] = map[int]map[string]int{}
		g.argVars[pi] = map[int][][]string{}
		g.calleeOf[pi] = map[int]int{}
		for _, n := range p.CFG.Nodes {
			if n.Kind != cfg.KindCall {
				continue
			}
			call, ok := lang.Unlabel(n.Stmt).(*lang.CallStmt)
			if !ok {
				return fmt.Errorf("sdg: call node %d in %s has no CallStmt", n.ID, g.procLabel(pi))
			}
			qi, ok := g.byName[call.Name]
			if !ok {
				return fmt.Errorf("sdg: call to unknown procedure %q", call.Name)
			}
			if got, want := len(call.Args), len(g.Procs[qi].Params); got != want {
				return fmt.Errorf("sdg: call to %q has %d arguments, want %d", call.Name, got, want)
			}
			g.calleeOf[pi][n.ID] = qi
			g.sites[qi] = append(g.sites[qi], Site{Proc: pi, Node: n.ID})
			ins := make([]int, len(call.Args))
			vars := make([][]string, len(call.Args))
			for j, arg := range call.Args {
				vars[j] = argVarSet(arg)
				ins[j] = add(Vertex{Kind: VertActualIn, Proc: pi, Node: n.ID, Index: j})
			}
			g.actualIn[pi][n.ID] = ins
			g.argVars[pi][n.ID] = vars
			outIdx := map[int]int{}
			outVar := map[string]int{}
			for _, j := range lang.CallCopyOuts(call) {
				v := call.Args[j].(*lang.Ident).Name
				id := add(Vertex{Kind: VertActualOut, Proc: pi, Node: n.ID, Index: j, Var: v})
				outIdx[j] = id
				outVar[v] = id
			}
			g.actualOutIdx[pi][n.ID] = outIdx
			g.actualOutVar[pi][n.ID] = outVar
		}
	}
	return nil
}

// argVarSet is the sorted variable set an argument expression reads,
// including the input cursor when the argument calls eof().
func argVarSet(arg lang.Expr) []string {
	vars := lang.ExprVars(nil, arg)
	for _, name := range lang.ExprCalls(nil, arg) {
		if name == "eof" {
			vars = append(vars, dataflow.InputVar)
			break
		}
	}
	sort.Strings(vars)
	out := vars[:0]
	for i, v := range vars {
		if i == 0 || vars[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// defVert is the vertex standing for "node d's definition of v": the
// statement vertex, except that a call's copy-out definitions live on
// its actual-out vertices.
func (g *Graph) defVert(pi, d int, v string) int {
	if g.Procs[pi].CFG.Nodes[d].Kind == cfg.KindCall {
		if out, ok := g.actualOutVar[pi][d][v]; ok {
			return out
		}
	}
	return g.stmtVert[pi][d]
}

func (g *Graph) addDep(from, to int, k EdgeKind) {
	for _, d := range g.deps[from] {
		if d.To == to && d.Kind == k {
			return
		}
	}
	g.deps[from] = append(g.deps[from], Dep{To: to, Kind: k})
	g.edgeCount[k]++
}

func (g *Graph) buildEdges() {
	for pi, p := range g.Procs {
		// Statement vertices: control, invariant, and (except at call
		// nodes, whose argument reads live on actual-ins) data.
		for _, n := range p.CFG.Nodes {
			sv := g.stmtVert[pi][n.ID]
			for _, parent := range p.CDG.ParentIDs(n.ID) {
				g.addDep(sv, g.stmtVert[pi][parent], EdgeControl)
			}
			for _, tab := range p.Extra {
				if t := tab[n.ID]; t >= 0 {
					g.addDep(sv, g.stmtVert[pi][t], EdgeInvariant)
				}
			}
			if n.Kind == cfg.KindCall {
				continue
			}
			for _, v := range dataflow.UsesOf(n) {
				for _, d := range p.RD.ReachingDefsOf(n.ID, v) {
					g.addDep(sv, g.defVert(pi, d, v), EdgeData)
				}
			}
		}
		// Call sites: actual-in/out anchoring, linkage edges.
		for _, n := range p.CFG.Nodes {
			if n.Kind != cfg.KindCall {
				continue
			}
			qi := g.calleeOf[pi][n.ID]
			callV := g.stmtVert[pi][n.ID]
			g.addDep(g.entryVert(qi), callV, EdgeCall)
			for j, vars := range g.argVars[pi][n.ID] {
				aiv := g.actualIn[pi][n.ID][j]
				g.addDep(aiv, callV, EdgeControl)
				for _, v := range vars {
					for _, d := range p.RD.ReachingDefsOf(n.ID, v) {
						g.addDep(aiv, g.defVert(pi, d, v), EdgeData)
					}
				}
				g.addDep(g.formalIn[qi][j], aiv, EdgeParamIn)
			}
			for j, aov := range g.actualOutIdx[pi][n.ID] {
				g.addDep(aov, callV, EdgeControl)
				g.addDep(aov, g.formalOut[qi][j], EdgeParamOut)
			}
		}
		// Formals: anchored to entry; formal-out collects the
		// definitions of its parameter reaching Exit; upward-exposed
		// uses of the parameter depend on formal-in.
		entryV := g.entryVert(pi)
		for j, param := range p.Params {
			fiv, fov := g.formalIn[pi][j], g.formalOut[pi][j]
			g.addDep(fiv, entryV, EdgeControl)
			g.addDep(fov, entryV, EdgeControl)
			for _, d := range p.RD.ReachingDefsOf(p.CFG.Exit.ID, param) {
				g.addDep(fov, g.defVert(pi, d, param), EdgeData)
			}
			g.exposeParam(pi, j, param)
		}
	}
}

// exposeParam adds the dependence edges carried by the copy-in
// definition of parameter j: every use of the parameter reachable
// from Entry along a path free of intervening definitions depends on
// formal-in, and if such a path reaches Exit the incoming value
// survives to the copy-out, so formal-out depends on formal-in.
func (g *Graph) exposeParam(pi, j int, param string) {
	p := g.Procs[pi]
	fiv := g.formalIn[pi][j]
	seen := make([]bool, p.CFG.NumNodes())
	stack := []int{p.CFG.Entry.ID}
	seen[p.CFG.Entry.ID] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := p.CFG.Nodes[id]
		if id != p.CFG.Entry.ID {
			if n.Kind == cfg.KindCall {
				for k, vars := range g.argVars[pi][id] {
					for _, v := range vars {
						if v == param {
							g.addDep(g.actualIn[pi][id][k], fiv, EdgeData)
						}
					}
				}
			} else {
				for _, v := range dataflow.UsesOf(n) {
					if v == param {
						g.addDep(g.stmtVert[pi][id], fiv, EdgeData)
					}
				}
			}
			if id == p.CFG.Exit.ID {
				g.addDep(g.formalOut[pi][j], fiv, EdgeData)
			}
		}
		// The incoming value is killed here; don't continue past a
		// redefinition (uses at the defining node itself happen before
		// the kill and were handled above).
		if id != p.CFG.Entry.ID && defines(n, param) {
			continue
		}
		for _, s := range n.Succs() {
			if id == p.CFG.Entry.ID && s == p.CFG.Exit.ID {
				// The Entry→Exit edge exists only to root the control
				// dependence computation; it is not an executable path,
				// so it must not make every parameter look live-through.
				continue
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
}

func defines(n *cfg.Node, v string) bool {
	for _, d := range dataflow.DefsOf(n) {
		if d == v {
			return true
		}
	}
	return false
}

// ComputeSummaries runs the HRB worklist: for each procedure and each
// formal-out, find the formal-ins reachable along same-level
// realizable paths and install the matching actual-out → actual-in
// summary edges at every call site; repeat (new summary edges can
// extend same-level paths in callers) until a fixpoint. It reports
// the graph's summary edge count and the completing run's worklist
// rounds. Idempotent: later calls return the recorded totals without
// re-running. cancel (nil to disable) is consulted once per worklist
// round and inside each closure walk; a canceled run leaves only
// valid summary edges behind, so calling again completes the same
// fixpoint. It is the one writer of the graph after Build; the caller
// keeps it from running alongside readers.
func (g *Graph) ComputeSummaries(cancel func() error) (edges, rounds int, err error) {
	if g.summariesDone {
		return g.edgeCount[EdgeSummary], g.summaryRounds, nil
	}
	known := make([][][]bool, len(g.Procs))
	inList := make([]bool, len(g.Procs))
	var wl []int
	for qi, p := range g.Procs {
		if len(p.Params) > 0 {
			known[qi] = make([][]bool, len(p.Params))
			for j := range known[qi] {
				known[qi][j] = make([]bool, len(p.Params))
			}
			wl = append(wl, qi)
			inList[qi] = true
		}
	}
	for len(wl) > 0 {
		if cancel != nil {
			if err := cancel(); err != nil {
				return g.edgeCount[EdgeSummary], rounds, err
			}
		}
		qi := wl[0]
		wl = wl[1:]
		inList[qi] = false
		rounds++
		changed := false
		for j := range g.Procs[qi].Params {
			reach, err := g.Closure([]int{g.formalOut[qi][j]}, SameLevel, cancel)
			if err != nil {
				return g.edgeCount[EdgeSummary], rounds, err
			}
			for k := range g.Procs[qi].Params {
				if known[qi][j][k] || !reach.Has(g.formalIn[qi][k]) {
					continue
				}
				known[qi][j][k] = true
				changed = true
				for _, site := range g.sites[qi] {
					if aov, ok := g.actualOutIdx[site.Proc][site.Node][j]; ok {
						g.addDep(aov, g.actualIn[site.Proc][site.Node][k], EdgeSummary)
					}
				}
			}
		}
		if changed {
			for _, site := range g.sites[qi] {
				ci := site.Proc
				if len(g.Procs[ci].Params) > 0 && !inList[ci] {
					inList[ci] = true
					wl = append(wl, ci)
				}
			}
		}
	}
	g.summariesDone = true
	g.summaryRounds = rounds
	return g.edgeCount[EdgeSummary], rounds, nil
}

// SummariesComputed reports whether ComputeSummaries has run.
func (g *Graph) SummariesComputed() bool { return g.summariesDone }

// Closure returns the backward closure of the seeds under the pass's
// edge filter as a fresh set. cancel (nil to disable) is consulted at
// a bounded cadence; a non-nil error abandons the walk.
func (g *Graph) Closure(seeds []int, pass Pass, cancel func() error) (*bits.Set, error) {
	set := bits.New(len(g.Verts))
	_, err := g.GrowInto(set, seeds, pass, cancel)
	return set, err
}

// GrowInto unions the seeds' backward closure under the pass filter
// into set, reporting whether set grew.
func (g *Graph) GrowInto(set *bits.Set, seeds []int, pass Pass, cancel func() error) (bool, error) {
	var stack []int
	grew := false
	for _, s := range seeds {
		if !set.Has(s) {
			set.Add(s)
			stack = append(stack, s)
			grew = true
		}
	}
	budget := cancelCheckVerts
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if budget--; budget <= 0 {
			budget = cancelCheckVerts
			if cancel != nil {
				if err := cancel(); err != nil {
					return grew, err
				}
			}
		}
		for _, d := range g.deps[v] {
			if pass.skips(d.Kind) {
				continue
			}
			if !set.Has(d.To) {
				set.Add(d.To)
				stack = append(stack, d.To)
				grew = true
			}
		}
	}
	return grew, nil
}

// --- lookups ---

func (g *Graph) entryVert(pi int) int {
	return g.stmtVert[pi][g.Procs[pi].CFG.Entry.ID]
}

// NumVerts returns the vertex count.
func (g *Graph) NumVerts() int { return len(g.Verts) }

// Vert returns the vertex record for id.
func (g *Graph) Vert(id int) Vertex { return g.Verts[id] }

// Deps returns v's backward dependence edges. Shared; do not modify.
func (g *Graph) Deps(v int) []Dep { return g.deps[v] }

// StmtVert returns the statement vertex of a local flowgraph node.
func (g *Graph) StmtVert(pi, node int) int { return g.stmtVert[pi][node] }

// EntryVert returns the statement vertex of a procedure's Entry node.
func (g *Graph) EntryVert(pi int) int { return g.entryVert(pi) }

// ActualOutVertByVar returns the actual-out vertex carrying variable v
// at a call node, if the call copies v back out.
func (g *Graph) ActualOutVertByVar(pi, node int, v string) (int, bool) {
	id, ok := g.actualOutVar[pi][node][v]
	return id, ok
}

// ActualInVertsMentioning returns the actual-in vertices at a call
// node whose argument expression reads variable v.
func (g *Graph) ActualInVertsMentioning(pi, node int, v string) []int {
	var out []int
	for j, vars := range g.argVars[pi][node] {
		for _, av := range vars {
			if av == v {
				out = append(out, g.actualIn[pi][node][j])
				break
			}
		}
	}
	return out
}

// CalleeOf returns the callee procedure index of a call node.
func (g *Graph) CalleeOf(pi, node int) (int, bool) {
	qi, ok := g.calleeOf[pi][node]
	return qi, ok
}

// Sites returns the call sites of procedure qi. Shared; do not modify.
func (g *Graph) Sites(qi int) []Site { return g.sites[qi] }

// ProcVertRange returns the half-open vertex ID range [lo, hi) of
// procedure pi's vertices; statements, formals, and actuals are
// allocated contiguously per procedure, so membership tests over one
// procedure's vertices are a range scan.
func (g *Graph) ProcVertRange(pi int) (lo, hi int) {
	lo = g.stmtVert[pi][0]
	if pi+1 < len(g.Procs) {
		hi = g.stmtVert[pi+1][0]
	} else {
		hi = len(g.Verts)
	}
	return lo, hi
}

// VertLine maps a vertex to the source line it should be attributed
// to: statements and actuals use their node's line, formals use the
// procedure declaration's line.
func (g *Graph) VertLine(id int) int {
	v := g.Verts[id]
	switch v.Kind {
	case VertFormalIn, VertFormalOut:
		return g.Procs[v.Proc].DeclLine
	default:
		return g.Procs[v.Proc].CFG.Nodes[v.Node].Line
	}
}

// VertString renders a vertex for diagnostics and explain payloads:
// "p2.formal-in(x)", "main.actual-out(sum)@12", "main.stmt@7".
func (g *Graph) VertString(id int) string {
	v := g.Verts[id]
	label := g.procLabel(v.Proc)
	switch v.Kind {
	case VertStmt:
		n := g.Procs[v.Proc].CFG.Nodes[v.Node]
		if n.Stmt == nil {
			return fmt.Sprintf("%s.%s", label, n.Kind)
		}
		return fmt.Sprintf("%s.stmt@%d", label, n.Line)
	case VertFormalIn, VertFormalOut:
		return fmt.Sprintf("%s.%s(%s)", label, v.Kind, v.Var)
	case VertActualIn:
		return fmt.Sprintf("%s.actual-in#%d@%d", label, v.Index, g.VertLine(id))
	default:
		return fmt.Sprintf("%s.actual-out(%s)@%d", label, v.Var, g.VertLine(id))
	}
}

func (g *Graph) procLabel(pi int) string {
	if name := g.Procs[pi].Name; name != "" {
		return name
	}
	return "main"
}

// Stats summarizes the graph for metrics and explain payloads.
func (g *Graph) Stats() Stats {
	s := Stats{
		Procs:         len(g.Procs),
		Verts:         len(g.Verts),
		Edges:         map[string]int{},
		SummaryEdges:  g.edgeCount[EdgeSummary],
		SummaryRounds: g.summaryRounds,
	}
	for k, n := range g.edgeCount {
		if n > 0 {
			s.Edges[EdgeKind(k).String()] = n
		}
	}
	return s
}
