package core

import (
	"context"
	"slices"

	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/pdg"
)

// numPhases is the number of construction phases the incremental
// accounting covers: cfg, postdominators, cdg, dataflow, pdg, lst,
// worklists (the phase.analyze.* spans of a cold run).
const numPhases = 7

// IncrStats reports what the incremental engine did for one
// re-analysis.
type IncrStats struct {
	// Outcome names the tier that ran: "patched" (flowgraph shape and
	// every definition survived; only edited dependence rows were
	// recomputed), "partial" (shape survived but a definition changed,
	// so the moved variables' reaching definitions were re-solved), or
	// "full" (a clean cold analysis).
	Outcome string `json:"outcome"`
	// PhasesReused / PhasesRecomputed partition the cold pipeline's
	// phases by whether the previous result was carried over.
	PhasesReused     int `json:"phases_reused"`
	PhasesRecomputed int `json:"phases_recomputed"`
	// CondensationPatched reports that the previous analysis's batch
	// condensation (with its memoized closures) survived via
	// Condensation.Patched instead of being dropped for lazy rebuild.
	CondensationPatched bool `json:"condensation_patched"`
	// Fallback is the reason a full run happened ("" otherwise).
	Fallback string `json:"fallback,omitempty"`
	// Edits is the statement-level edit script of the diff, for
	// reporting.
	Edits []incremental.Edit `json:"edits,omitempty"`
}

// incrMetrics resolves the incremental engine's counters: reused and
// recomputed phase counts, and full-pipeline fallbacks.
type incrMetrics struct {
	reused, recomputed, fallbacks *obs.Counter
}

func resolveIncrMetrics(rec *obs.Registry) incrMetrics {
	return incrMetrics{
		reused:     rec.Counter("incr.reused"),
		recomputed: rec.Counter("incr.recomputed"),
		fallbacks:  rec.Counter("incr.fallbacks"),
	}
}

// ReanalyzeProgram re-derives an Analysis for prog, reusing whatever
// the previous analysis proves still valid. The result is always
// exactly what AnalyzeObservedContext(ctx, prog, reg, tr) would
// produce — reuse never depends on the differ being clever, only on
// the structural safety checks holding — so callers can treat it as a
// faster analysis. prev may be nil (a plain cold analysis). prog may
// come from a full parse or from incremental.SpliceLine, which avoids
// the reparse that would otherwise dominate a one-line edit.
//
// Tier decision:
//
//   - A program with procedures on either side is analyzed cold
//     ("full"): reuse is per flowgraph, and such a program has one
//     per procedure.
//   - The ASTs are diffed statement by statement. Any structural
//     difference — statement inserted, deleted, kind changed, label or
//     goto target or case value changed — falls back to a cold
//     AnalyzeObservedContext ("full").
//   - Same shape with every definition intact reuses the
//     postdominator tree, CDG, LST, dataflow and all precomputed
//     worklists (they are pure functions of flowgraph shape, or of
//     shape plus definition sites); only the flowgraph is rebuilt and
//     the edited statements' dependence rows recomputed ("patched").
//     If the previous analysis had built its batch condensation and
//     the edit provably neither merges nor splits a dependence SCC,
//     the condensation and its memoized closures are patched over too.
//   - Same shape but with a changed definition ("partial") re-solves
//     reaching definitions for the variables whose definitions moved
//     only, and re-derives the dependence rows of the nodes using
//     them, on top of the reused shape-derived structures. An edit
//     that gives a variable its first definition or takes its last
//     re-runs dataflow and the PDG merge instead.
//
// The freshly built flowgraph is verified node-for-node against the
// previous one before anything is reused, so a differ bug degrades to
// a full run, never to a wrong slice.
func ReanalyzeProgram(ctx context.Context, prev *Analysis, prog *lang.Program, reg *obs.Registry, tr *obs.Tracer) (*Analysis, *IncrStats, error) {
	o := obs.Observer{Reg: reg, Tr: tr}
	im := resolveIncrMetrics(reg)
	defer o.StartSpan("phase.reanalyze").End()

	stats := &IncrStats{}
	full := func(reason string) (*Analysis, *IncrStats, error) {
		stats.Outcome = "full"
		stats.Fallback = reason
		stats.PhasesReused = 0
		stats.PhasesRecomputed = numPhases
		im.fallbacks.Add(1)
		im.recomputed.Add(numPhases)
		a, err := AnalyzeObservedContext(ctx, prog, reg, tr)
		if err != nil {
			return nil, nil, err
		}
		return a, stats, nil
	}

	if prev == nil {
		return full("no previous analysis")
	}
	if len(prog.Procs) > 0 || len(prev.Prog.Procs) > 0 {
		return full("program declares procedures")
	}
	sc := incremental.Diff(prev.Prog, prog)
	stats.Edits = sc.Edits
	if !sc.SameShape {
		return full(sc.Mismatch)
	}

	// Re-derive the flowgraph by rebinding the previous node table
	// onto the new statements — the graph is structural, so a
	// same-shape program has the same one. Rebind re-verifies the
	// shape claim position by position (kinds, labels, goto targets)
	// and refuses anything the differ should have caught, so a differ
	// bug degrades to a full run, never to a wrong graph.
	g2, ok := cfg.Rebind(prev.CFG, prog)
	if !ok {
		return full("flowgraph rebind mismatch")
	}

	a := &Analysis{
		Prog:  prog,
		CFG:   g2,
		batch: &batchState{},
		set:   &setState{},
	}
	a.observe(o)
	a.bindContext(ctx)
	if err := a.checkCancel("reanalyze"); err != nil {
		return nil, nil, err
	}

	// Shape-pure structures: the postdominator tree holds no graph
	// reference and is shared outright; CDG and LST are shallow-copied
	// with their graph pointer rebound so queries resolve against the
	// new nodes.
	a.PDT = prev.PDT
	cd := *prev.CDG
	cd.CFG = g2
	a.CDG = &cd
	lt := *prev.LST
	lt.CFG = g2
	a.LST = &lt

	// Worklists: live, the invariant tables and the jump preorders
	// are all functions of shape and node IDs;
	// goto nodes are pointers and re-resolve into the new graph.
	a.live = prev.live
	a.enclosingSwitch = prev.enclosingSwitch
	a.jumpsPDT = prev.jumpsPDT
	a.jumpsLST = prev.jumpsLST
	a.condJumpOf = prev.condJumpOf
	a.gotoNodes = make([]*cfg.Node, len(prev.gotoNodes))
	for i, n := range prev.gotoNodes {
		a.gotoNodes[i] = g2.Nodes[n.ID]
	}

	edited, ok := editedNodes(g2, sc.Replaced)
	if !ok {
		return full("edited statement has no flowgraph node")
	}
	rd, rows, rebound := prev.RD.Rebound(g2, edited)
	defChanged := false
	for _, r := range sc.Replaced {
		if r.DefChanged {
			defChanged = true
			break
		}
	}
	if defChanged {
		// Partial tier: a definition site changed variables, so the
		// reaching-definitions frontier moved. Only the moved
		// variables' definitions are re-solved, and only the rows of
		// the nodes using them (or edited) re-derived; an edit that
		// changes which variables are defined at all re-runs dataflow
		// and the PDG merge on the reused shape-derived structures.
		stats.Outcome = "partial"
		stats.PhasesReused = 4     // postdominators, cdg, lst, worklists
		stats.PhasesRecomputed = 3 // cfg, dataflow, pdg
		if rebound {
			a.RD = rd
			a.PDG = prev.PDG.Rederive(g2, a.CDG, movedRows(prev.PDG, rd, rows))
		} else {
			a.RD = dataflow.Reach(g2)
			if err := a.checkCancel("reanalyze"); err != nil {
				return nil, nil, err
			}
			a.PDG = pdg.Build(g2, a.CDG, a.RD)
		}
	} else {
		// Patched tier: same definitions everywhere, so reaching
		// definitions are untouched; only the edited statements' data
		// dependence rows can differ.
		if !rebound {
			return full("definition changed under a patched edit")
		}
		stats.Outcome = "patched"
		stats.PhasesReused = 5     // postdominators, cdg, dataflow, lst, worklists
		stats.PhasesRecomputed = 2 // cfg, pdg rows
		a.RD = rd
		changed := make([]pdg.Row, len(rows))
		for i, n := range rows {
			changed[i] = pdg.Row{Node: n, Deps: rd.AppendDataDeps(nil, n)}
		}
		a.PDG = prev.PDG.Rederive(g2, a.CDG, changed)
		a.patchCondensation(prev, changed, stats)
	}
	im.reused.Add(int64(stats.PhasesReused))
	im.recomputed.Add(int64(stats.PhasesRecomputed))
	return a, stats, nil
}

// editedNodes returns the IDs of the nodes of g bearing the replaced
// statements, ascending, resolved in one pass over g's nodes: a
// rebound graph has no statement index (Slice.Format prints without
// one), and building it would cost a map insert per node. ok is false
// if some replaced statement has no node.
func editedNodes(g *cfg.Graph, replaced []incremental.Replacement) ([]int, bool) {
	want := make(map[lang.Stmt]bool, len(replaced))
	for _, r := range replaced {
		want[lang.Unlabel(r.New)] = true
	}
	edited := make([]int, 0, len(replaced))
	for _, n := range g.Nodes {
		if len(want) == 0 {
			break
		}
		if n.Stmt != nil && want[n.Stmt] {
			delete(want, n.Stmt)
			edited = append(edited, n.ID)
		}
	}
	return edited, len(want) == 0
}

// movedRows returns the data dependence rows, under rd, of the nodes
// in rows that differ from p's: what Rederive must overlay after a
// definition move. A node using a moved variable often keeps its row
// (the move did not change which definitions reach it), and leaving
// it out keeps the overlay, and its flattening, small.
func movedRows(p *pdg.Graph, rd *dataflow.ReachingDefs, rows []int) []pdg.Row {
	var out []pdg.Row
	flat := make([]int, 0, 4*len(rows))
	for _, n := range rows {
		lo := len(flat)
		flat = rd.AppendDataDeps(flat, n)
		if slices.Equal(flat[lo:], p.DataDeps(n)) {
			flat = flat[:lo]
			continue
		}
		out = append(out, pdg.Row{Node: n, Deps: flat[lo:len(flat):len(flat)]})
	}
	return out
}

// patchCondensation tries to carry the previous analysis's batch
// condensation — and its memoized component closures — across a
// patched-tier edit. The previous condensation is read through its
// atomic slot (other views of prev may be slicing concurrently) and
// is never modified; Patched refuses any edit that might merge or
// split a component, in which case the new analysis simply rebuilds
// its condensation lazily on the next SliceAll.
func (a *Analysis) patchCondensation(prev *Analysis, changed []pdg.Row, stats *IncrStats) {
	prevCond := prev.batch.cond.Load()
	if prevCond == nil {
		return
	}
	// The edited nodes' rows of the slicing relation, built as
	// batchEngine builds every row. The invariant tables are
	// shape-derived and did not change — only the dependence part of
	// each edited row did.
	rows := make([]pdg.Row, len(changed))
	for i, r := range changed {
		rows[i] = pdg.Row{Node: r.Node, Deps: a.relationRow(r.Node)}
	}
	q, ok := prevCond.Patched(rows)
	if !ok {
		return
	}
	a.batch.cond.Store(q)
	stats.CondensationPatched = true
	stats.PhasesReused++ // the condensation survived as an eighth phase
}
