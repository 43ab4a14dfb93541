package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/sdg"
)

// This file is the interprocedural layer: a program with procedure
// declarations is analyzed per procedure with the existing machinery
// (each body gets its own flowgraph, dominators, dependence graphs,
// and lexical successor tree — jump statements never cross a
// procedure boundary, so all of the paper's Figure 7 reasoning stays
// per-procedure), the per-procedure results are stitched into a
// system dependence graph (internal/sdg), and slices are computed
// with the Horwitz–Reps–Binkley two-pass algorithm over summary
// edges, followed by the Figure 7 jump repair run inside each
// procedure against its local projection of the slice.

// ProcUnit is the per-procedure analysis of one program-set member.
type ProcUnit struct {
	// Index is the unit's position in ProgramSet.Units and its
	// procedure index in the SDG.
	Index int
	// Name is the procedure name; "" for main.
	Name string
	// Decl is the source declaration; nil for main.
	Decl *lang.ProcDecl
	// Sub is the full single-procedure analysis of the body (the
	// procedure's statements under a synthetic Program, or a view of
	// a procedure-free analysis itself), so every intraprocedural
	// structure and algorithm applies unchanged.
	Sub *Analysis
}

// ProgramSet is the interprocedural view of an Analysis: the
// per-procedure analyses of its program plus their system dependence
// graph; a procedure-free program is the one-unit case, on which
// SliceInterproc produces the Agrawal slice. The SDG's summary edges
// are computed once, on the first slice of any view, so repeat slices
// skip the interprocedural fixpoint entirely.
type ProgramSet struct {
	Prog *lang.Program
	// Units holds the procedures in declaration order, then main
	// last; indices match SDG procedure indices.
	Units []*ProcUnit
	// SDG is the system dependence graph over the units.
	SDG *sdg.Graph

	o  obs.Observer
	sm sdgMetrics

	// summaries serializes the summary worklist, the SDG's only
	// writer after Build, across every view of the set.
	summaries *sync.Mutex
}

// sdgMetrics is the ProgramSet's pre-resolved instrument set.
type sdgMetrics struct {
	slices        *obs.Counter
	summaryEdges  *obs.Counter
	summaryRounds *obs.Counter
	jumpsAdmitted *obs.Counter
}

func (m *sdgMetrics) resolve(rec *obs.Registry) {
	m.slices = rec.Counter("sdg.slices")
	m.summaryEdges = rec.Counter("sdg.summary_edges")
	m.summaryRounds = rec.Counter("sdg.summary_rounds")
	m.jumpsAdmitted = rec.Counter("sdg.jumps_admitted")
}

// setState is the request-free program set shared by an Analysis and
// its Rebind views: seeded at analysis time for a program with
// procedures, built on first use for a procedure-free one.
type setState struct {
	once sync.Once
	ps   *ProgramSet
	err  error
}

// AnalyzeProgramSet analyzes a program that may declare procedures
// and returns its program set. Summary edges are left to the first
// slice.
func AnalyzeProgramSet(prog *lang.Program) (*ProgramSet, error) {
	a, err := Analyze(prog)
	if err != nil {
		return nil, err
	}
	return a.ProgramSet()
}

// ProgramSet returns the analysis's program set, bound to this view's
// context, registry and tracer: criteria resolve, and closures and
// the summary worklist cancel, through them.
func (a *Analysis) ProgramSet() (*ProgramSet, error) {
	st := a.set
	st.once.Do(func() {
		st.ps, st.err = newProgramSet(a.Prog, []*ProcUnit{{Sub: a.Rebind(nil, nil, nil)}}, a.o)
	})
	if st.err != nil {
		return nil, st.err
	}
	v := *st.ps
	v.o = a.o
	v.sm.resolve(a.o.Reg)
	v.Units = make([]*ProcUnit, len(st.ps.Units))
	for i, u := range st.ps.Units {
		cp := *u
		cp.Sub = u.Sub.Rebind(a.ctx, a.o.Reg, a.o.Tr)
		v.Units[i] = &cp
	}
	return &v, nil
}

// analyzeProcs is AnalyzeObservedContext for a program with
// procedures: each body is analyzed as its own single-procedure
// program, the SDG is built over them, and the main unit's analysis,
// widened to the whole program, carries the set.
func analyzeProcs(ctx context.Context, prog *lang.Program, o obs.Observer) (*Analysis, error) {
	var units []*ProcUnit
	analyzeBody := func(name string, decl *lang.ProcDecl, body []lang.Stmt, labels map[string]*lang.LabeledStmt) error {
		sub, err := AnalyzeObservedContext(ctx, &lang.Program{Body: body, Labels: labels}, o.Reg, o.Tr)
		if err != nil {
			if name == "" {
				return fmt.Errorf("core: analyzing main: %w", err)
			}
			return fmt.Errorf("core: analyzing proc %s: %w", name, err)
		}
		units = append(units, &ProcUnit{Name: name, Decl: decl, Sub: sub.Rebind(nil, nil, nil)})
		return nil
	}
	for _, d := range prog.Procs {
		if err := analyzeBody(d.Name, d, d.Body, d.Labels); err != nil {
			return nil, err
		}
	}
	if err := analyzeBody("", nil, prog.Body, prog.Labels); err != nil {
		return nil, err
	}
	ps, err := newProgramSet(prog, units, o)
	if err != nil {
		return nil, err
	}
	a := ps.MainUnit().Sub.Rebind(ctx, o.Reg, o.Tr)
	a.Prog = prog
	a.set = &setState{}
	a.set.once.Do(func() { a.set.ps = ps })
	return a, nil
}

// newProgramSet builds the SDG over already-analyzed units, numbering
// them in order.
func newProgramSet(prog *lang.Program, units []*ProcUnit, o obs.Observer) (*ProgramSet, error) {
	defer o.StartSpan("phase.analyze.sdg").End()

	infos := make([]*sdg.ProcInfo, len(units))
	for i, u := range units {
		u.Index = i
		info := &sdg.ProcInfo{
			Name: u.Name,
			CFG:  u.Sub.CFG,
			CDG:  u.Sub.CDG,
			RD:   u.Sub.RD,
			// The two slice invariants as edges, as every core
			// closure walks them (see depEngine): closures over the
			// SDG are normalized by construction.
			Extra: u.Sub.invariants(),
		}
		if u.Decl != nil {
			info.Params = u.Decl.Params
			info.DeclLine = u.Decl.P.Line
		}
		infos[i] = info
	}
	g, err := sdg.Build(infos)
	if err != nil {
		return nil, err
	}
	return &ProgramSet{Prog: prog, Units: units, SDG: g, summaries: &sync.Mutex{}}, nil
}

// MainUnit returns the unit of the top-level statements.
func (ps *ProgramSet) MainUnit() *ProcUnit { return ps.Units[len(ps.Units)-1] }

// UnitAtLine returns the unit whose body contains the source line.
func (ps *ProgramSet) UnitAtLine(line int) *ProcUnit {
	for _, u := range ps.Units {
		if len(u.Sub.CFG.NodesAtLine(line)) > 0 {
			return u
		}
	}
	return nil
}

// EnsureSummaries runs the HRB summary-edge worklist unless a view of
// the set has completed it; SliceInterproc calls it implicitly, so
// call it directly only to front-load (or measure) the cost. A
// canceled run is not remembered: the next call resumes it.
func (ps *ProgramSet) EnsureSummaries() error {
	ps.summaries.Lock()
	defer ps.summaries.Unlock()
	if ps.SDG.SummariesComputed() {
		return nil
	}
	defer ps.o.StartSpan("phase.sdg.summaries").End()
	edges, rounds, err := ps.SDG.ComputeSummaries(ps.MainUnit().Sub.cancelf)
	if err != nil {
		return err
	}
	ps.sm.summaryEdges.Add(int64(edges))
	ps.sm.summaryRounds.Add(int64(rounds))
	return nil
}

// InterSlice is the result of an interprocedural slice: the global
// vertex sets of the two HRB passes plus, per unit, an ordinary Slice
// over the unit's flowgraph (the local projection, with the jumps the
// per-procedure repair admitted and the unit's relabeled gotos).
type InterSlice struct {
	Set       *ProgramSet
	Criterion Criterion
	Algorithm string
	// CriterionProc is the index of the unit owning the criterion
	// line.
	CriterionProc int
	// V1 and V2 are the SDG vertex sets after pass one (ascend only)
	// and pass two (descend only, seeded from V1); V2 is the slice.
	V1, V2 *bits.Set
	// PerProc holds one Slice per unit, indexed like Units.
	PerProc []*Slice
	// JumpsAdded is the total number of jumps the per-procedure
	// repair admitted across all units; Traversals the total Figure 7
	// traversal count; Rounds the number of outer repair rounds over
	// all units (counting the final unproductive one).
	JumpsAdded int
	Traversals int
	Rounds     int
}

// SliceInterproc computes the HRB two-pass backward slice for the
// criterion, then repairs jump statements per procedure with the
// paper's Figure 7 rule, iterating to a global fixpoint (a jump
// admitted in one procedure grows the slice across call boundaries,
// which can expose repair work in another).
func (ps *ProgramSet) SliceInterproc(c Criterion) (*InterSlice, error) {
	if err := ps.EnsureSummaries(); err != nil {
		return nil, err
	}
	u := ps.UnitAtLine(c.Line)
	if u == nil {
		return nil, fmt.Errorf("core: no statement at line %d", c.Line)
	}
	vseeds, err := ps.criterionVerts(u, c)
	if err != nil {
		return nil, err
	}
	g := ps.SDG
	cancel := u.Sub.cancelf
	// The dummy entry is in every slice by construction (covers
	// criteria in dead code), as in conventionalWith.
	vseeds = append(vseeds, g.EntryVert(u.Index))

	v1, err := g.Closure(vseeds, sdg.PassOne, cancel)
	if err != nil {
		return nil, err
	}
	v2, err := g.Closure(v1.Members(), sdg.PassTwo, cancel)
	if err != nil {
		return nil, err
	}

	s := &InterSlice{
		Set:           ps,
		Criterion:     c,
		Algorithm:     "sdg",
		CriterionProc: u.Index,
		V1:            v1,
		V2:            v2,
		PerProc:       make([]*Slice, len(ps.Units)),
	}

	// Per-procedure jump repair to a global fixpoint. Growing the
	// slice while repairing unit A can add vertices in unit B (the
	// closure of an admitted jump crosses call boundaries), so units
	// are re-repaired until a full round admits nothing.
	jumpsByUnit := make([][]int, len(ps.Units))
	rulesByUnit := make([][]JumpRule, len(ps.Units))
	totalNodes := 0
	for _, un := range ps.Units {
		totalNodes += un.Sub.CFG.NumNodes()
	}
	for {
		s.Rounds++
		changed := false
		for _, un := range ps.Units {
			// A unit the slice does not touch cannot admit a jump:
			// with an empty local projection every jump's nearest
			// postdominator and lexical successor in the slice are
			// both Exit, so the Figure 7 sweep is a no-op. Skipping
			// it keeps repair cost proportional to the slice, not the
			// program set.
			if !procTouched(ps.SDG, s.V2, un.Index) {
				continue
			}
			local := s.localSet(un)
			jumps, rules, trav, err := un.Sub.repairJumps(local, un.Sub.jumpsPDT, funcEngine{s: s, u: un})
			s.Traversals += trav
			if err != nil {
				return nil, fmt.Errorf("core: sdg repair in %s: %w", unitLabel(un), err)
			}
			if len(jumps) > 0 {
				jumpsByUnit[un.Index] = append(jumpsByUnit[un.Index], jumps...)
				rulesByUnit[un.Index] = append(rulesByUnit[un.Index], rules...)
				s.JumpsAdded += len(jumps)
				changed = true
			}
		}
		if !changed {
			break
		}
		if s.Rounds > totalNodes+1 {
			// Each productive round admits at least one jump, and
			// admissions are bounded by the global jump count; this
			// guard only trips on an implementation bug.
			return nil, fmt.Errorf("core: sdg jump repair failed to converge after %d rounds", s.Rounds)
		}
	}

	for _, un := range ps.Units {
		local := bits.New(un.Sub.CFG.NumNodes())
		if procTouched(ps.SDG, s.V2, un.Index) {
			local = s.localSet(un)
		}
		s.PerProc[un.Index] = &Slice{
			Analysis:   un.Sub,
			Criterion:  c,
			Algorithm:  "sdg",
			Nodes:      local,
			JumpsAdded: jumpsByUnit[un.Index],
			JumpRules:  rulesByUnit[un.Index],
			Relabeled:  un.Sub.retargetLabels(local),
		}
	}
	ps.sm.slices.Add(1)
	ps.sm.jumpsAdmitted.Add(int64(s.JumpsAdded))
	if ps.o.Tr != nil {
		ps.o.Tr.SliceDone("sdg", v2.Len())
	}
	return s, nil
}

// criterionVerts resolves the criterion in unit u, the unit owning its
// line, to the SDG vertices it seeds.
func (ps *ProgramSet) criterionVerts(u *ProcUnit, c Criterion) ([]int, error) {
	seeds, err := u.Sub.resolveCriterion(c)
	if err != nil {
		return nil, err
	}
	g := ps.SDG
	vseeds := make([]int, 0, len(seeds)+1)
	for _, id := range seeds {
		vseeds = append(vseeds, g.StmtVert(u.Index, id))
		// A criterion resolving to a call node means the variable is
		// defined by the call's copy-out or used by its arguments;
		// seed the parameter vertices carrying it, or the closure
		// would stop at the call statement without entering the
		// callee.
		if u.Sub.CFG.Nodes[id].Kind == cfg.KindCall {
			if aov, ok := g.ActualOutVertByVar(u.Index, id, c.Var); ok {
				vseeds = append(vseeds, aov)
			}
			vseeds = append(vseeds, g.ActualInVertsMentioning(u.Index, id, c.Var)...)
		}
	}
	return vseeds, nil
}

func unitLabel(u *ProcUnit) string {
	if u.Name == "" {
		return "main"
	}
	return "proc " + u.Name
}

// localSet projects the global vertex set onto a unit's flowgraph:
// the local node IDs whose statement vertex is in the slice.
func (s *InterSlice) localSet(u *ProcUnit) *bits.Set {
	g := s.Set.SDG
	set := bits.New(u.Sub.CFG.NumNodes())
	for _, n := range u.Sub.CFG.Nodes {
		if s.V2.Has(g.StmtVert(u.Index, n.ID)) {
			set.Add(n.ID)
		}
	}
	return set
}

// procTouched reports whether any of the unit's vertices (statement,
// formal, or actual) is in the given set.
func procTouched(g *sdg.Graph, set *bits.Set, pi int) bool {
	lo, hi := g.ProcVertRange(pi)
	next := set.NextSet(lo)
	return next >= 0 && next < hi
}

// funcEngine is the depEngine the per-procedure Figure 7 repair runs
// against: closures are global SDG closures (so an admitted jump's
// dependences cross call boundaries exactly like criterion
// dependences do), projected back onto the unit's flowgraph.
//
// The HRB pass discipline is preserved: a jump admitted in a
// procedure the first pass touched joins the first-pass set and its
// closure may ascend to callers (then cascades down via pass two); a
// jump admitted in a procedure only reached by descent joins the
// second pass and never re-ascends.
//
// Closures over the SDG carry the invariant edges, so they are
// normalized by construction.
type funcEngine struct {
	s *InterSlice
	u *ProcUnit
}

func (e funcEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	set := bits.New(e.u.Sub.CFG.NumNodes())
	for _, v := range seeds {
		if err := e.grow(set, v); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func (e funcEngine) grow(set *bits.Set, seed int) error {
	s, g := e.s, e.s.Set.SDG
	cancel := e.u.Sub.cancelf
	gv := g.StmtVert(e.u.Index, seed)
	if procTouched(g, s.V1, e.u.Index) {
		// First-pass territory: grow V1, then cascade the new
		// first-pass vertices down through pass two.
		before := s.V1.Clone()
		if _, err := g.GrowInto(s.V1, []int{gv}, sdg.PassOne, cancel); err != nil {
			return err
		}
		delta := s.V1.Clone()
		delta.DifferenceWith(before)
		// Vertices already in V2 are pass-two-closed there, so
		// GrowInto skipping them as seeds is exact.
		if _, err := g.GrowInto(s.V2, delta.Members(), sdg.PassTwo, cancel); err != nil {
			return err
		}
	} else {
		if _, err := g.GrowInto(s.V2, []int{gv}, sdg.PassTwo, cancel); err != nil {
			return err
		}
	}
	// Project the grown global slice back onto this unit's node set
	// (the set repairJumps is iterating).
	for _, n := range e.u.Sub.CFG.Nodes {
		if !set.Has(n.ID) && s.V2.Has(g.StmtVert(e.u.Index, n.ID)) {
			set.Add(n.ID)
		}
	}
	return nil
}

// Lines returns the sorted union of the per-unit slice lines — the
// paper-figure representation of the interprocedural slice.
func (s *InterSlice) Lines() []int {
	var lines []int
	for _, sl := range s.PerProc {
		lines = append(lines, sl.Lines()...)
	}
	slices.Sort(lines)
	return slices.Compact(lines)
}

// memberLines returns the sorted source lines of every vertex of the
// slice: its statement lines, plus the declaration line of each
// procedure whose entry or formals are in it.
func (s *InterSlice) memberLines() []int {
	g := s.Set.SDG
	var lines []int
	for v := s.V2.NextSet(0); v >= 0; v = s.V2.NextSet(v + 1) {
		if l := g.VertLine(v); l > 0 {
			lines = append(lines, l)
		}
	}
	slices.Sort(lines)
	return slices.Compact(lines)
}

// JumpLines returns the sorted source lines of the jumps the
// per-procedure repair admitted.
func (s *InterSlice) JumpLines() []int {
	var lines []int
	for i, sl := range s.PerProc {
		for _, id := range sl.JumpsAdded {
			lines = append(lines, s.Set.Units[i].Sub.CFG.Nodes[id].Line)
		}
	}
	slices.Sort(lines)
	return lines
}

// keptUnits decides which procedure declarations the materialized
// slice must carry: every unit with surviving statements, plus —
// transitively — every procedure still called from a surviving call
// statement (a callee sliced down to nothing must still be declared
// for the surviving call to resolve).
func (s *InterSlice) keptUnits() []bool {
	keep := make([]bool, len(s.Set.Units))
	for i, sl := range s.PerProc {
		keep[i] = len(sl.StatementNodes()) > 0
	}
	keep[len(keep)-1] = true // main is the program body, always emitted
	for changed := true; changed; {
		changed = false
		for i, u := range s.Set.Units {
			if !keep[i] {
				continue
			}
			for _, n := range u.Sub.CFG.Nodes {
				if n.Kind != cfg.KindCall || !s.PerProc[i].Nodes.Has(n.ID) {
					continue
				}
				if qi, ok := s.Set.SDG.CalleeOf(i, n.ID); ok && !keep[qi] {
					keep[qi] = true
					changed = true
				}
			}
		}
	}
	return keep
}

// Materialize projects the slice back onto the program text: each
// kept procedure is materialized from its local projection with the
// intraprocedural machinery (including per-procedure label
// retargeting), and reassembled around the materialized main body.
// Format prints the same program without building it; Materialize
// stays as its test oracle.
func (s *InterSlice) Materialize() *lang.Program {
	keep := s.keptUnits()
	out := &lang.Program{}
	for i, u := range s.Set.Units {
		if u.Decl == nil || !keep[i] {
			continue
		}
		sub := s.PerProc[i].Materialize()
		out.Procs = append(out.Procs, &lang.ProcDecl{
			P:      u.Decl.P,
			Name:   u.Decl.Name,
			Params: u.Decl.Params,
			Body:   sub.Body,
			Labels: sub.Labels,
		})
	}
	mainSub := s.PerProc[len(s.PerProc)-1].Materialize()
	out.Body = mainSub.Body
	out.Labels = mainSub.Labels
	return out
}

// Format pretty-prints the slice with original line numbers,
// procedures first, matching the paper's figure style. The text is
// lang.Format of Materialize's program, printed straight from the
// original AST with one projection per kept unit.
func (s *InterSlice) Format() string {
	keep := s.keptUnits()
	last := len(s.PerProc) - 1
	procs := make([]lang.ProjectedBody, last)
	for i := range procs {
		if keep[i] {
			procs[i] = s.PerProc[i].projectedBody()
		}
	}
	return lang.FormatProjection(s.Set.Prog, s.PerProc[last].projectedBody(), procs, lang.PrintOptions{LineNumbers: true})
}

// Explain computes the provenance of the interprocedural slice over
// its SDG vertices: the criterion's seed vertices, each touched unit's
// entry, every SDG edge between two members, and each unit's
// jump-rule admissions. Control and data edges give the control-dep
// and data-dep kinds; an invariant edge gives cond-jump or
// switch-enclosure, whichever of the unit's two tables holds it; the
// call, param-in, param-out and summary edges give their own kinds.
// Every member has a record whose evidence is in the slice, which the
// property tests assert over MultiProc corpora.
func (s *InterSlice) Explain() (*Provenance, error) {
	seeds, err := s.Set.criterionVerts(s.Set.Units[s.CriterionProc], s.Criterion)
	if err != nil {
		return nil, fmt.Errorf("core: explain %s: %w", s.Criterion, err)
	}
	p := &Provenance{Inter: s, table: newTable(s.Set.SDG.NumVerts())}
	s.emitReasons(&p.table, seeds)
	p.sum()
	s.emitReasons(&p.table, seeds)
	p.done()
	return p, nil
}

// emitReasons emits every record of the slice into t, kind by kind.
func (s *InterSlice) emitReasons(t *table, seeds []int) {
	g, set := s.Set.SDG, s.V2
	for _, v := range seeds {
		if set.Has(v) {
			t.add(v, dep(ReasonCriterion, -1))
		}
	}
	for _, u := range s.Set.Units {
		if e := g.EntryVert(u.Index); set.Has(e) {
			t.add(e, dep(ReasonEntry, -1))
		}
	}
	s.emitEdges(t, ReasonDataDep)
	s.emitEdges(t, ReasonControlDep)
	for _, u := range s.Set.Units {
		sl := s.PerProc[u.Index]
		for i, j := range sl.JumpsAdded {
			r := sl.JumpRules[i]
			t.add(g.StmtVert(u.Index, j), Reason{
				Kind:      ReasonJumpRule,
				From:      -1,
				NearestPD: g.StmtVert(u.Index, r.NearestPD),
				NearestLS: g.StmtVert(u.Index, r.NearestLS),
			})
		}
	}
	for _, k := range [...]ReasonKind{ReasonCondJump, ReasonSwitchEnclosure, ReasonCall, ReasonParamIn, ReasonParamOut, ReasonSummary} {
		s.emitEdges(t, k)
	}
}

// emitEdges emits the records of kind k: one per SDG edge of that kind
// from a member v to a member d, justifying d with evidence v.
func (s *InterSlice) emitEdges(t *table, k ReasonKind) {
	g, set := s.Set.SDG, s.V2
	for v := set.NextSet(0); v >= 0; v = set.NextSet(v + 1) {
		for _, d := range g.Deps(v) {
			if set.Has(d.To) && s.edgeReason(v, d) == k {
				t.add(d.To, dep(k, v))
			}
		}
	}
}

// edgeReasons maps each SDG edge kind to its record kind; an invariant
// edge is decided by edgeReason.
var edgeReasons = [sdg.NumEdgeKinds]ReasonKind{
	sdg.EdgeControl:  ReasonControlDep,
	sdg.EdgeData:     ReasonDataDep,
	sdg.EdgeCall:     ReasonCall,
	sdg.EdgeParamIn:  ReasonParamIn,
	sdg.EdgeParamOut: ReasonParamOut,
	sdg.EdgeSummary:  ReasonSummary,
}

// edgeReason maps the SDG edge from v to its record kind. An invariant
// edge is a conditional jump when the unit's condJumpOf table holds it,
// and a switch enclosure otherwise.
func (s *InterSlice) edgeReason(v int, d sdg.Dep) ReasonKind {
	if d.Kind != sdg.EdgeInvariant {
		return edgeReasons[d.Kind]
	}
	g := s.Set.SDG
	from := g.Vert(v)
	if s.Set.Units[from.Proc].Sub.condJumpOf[from.Node] == g.Vert(d.To).Node {
		return ReasonCondJump
	}
	return ReasonSwitchEnclosure
}
