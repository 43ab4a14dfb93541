// Package dynslice implements dynamic program slicing for programs
// with jump statements — the extension the paper's introduction
// motivates through its debugging application (reference [1] is
// Agrawal, DeMillo & Spafford, "Debugging with dynamic slicing and
// backtracking").
//
// A dynamic slice answers: which statements influenced the value of
// var at line on *this particular run*? The computation:
//
//  1. Execute the program on the given input, collecting the trace of
//     node instances.
//  2. Build instance-level dependences: each instance data-depends on
//     the most recent instance defining each variable it uses
//     (including the input-cursor variable), and control-depends on
//     the most recent instance of any node its statement is
//     statically control dependent on.
//  3. Take the backward closure from the criterion statement at
//     *statement granularity*: including a statement includes the
//     dependences of every traced instance of it (Korel–Laski style).
//     Instance-granular ("exact") dynamic slices are smaller but not
//     executable — a loop predicate needed only for its first test
//     would come without its own decrement, and the projected program
//     would diverge; statement granularity restores executability
//     while still excluding everything the run never touched.
//  4. Repair jumps exactly as the paper's Figure 7 does, reusing
//     core.RepairJumps on the dynamic statement set: the projected
//     slice must be a runnable subprogram, so the same
//     nearest-postdominator versus nearest-lexical-successor test
//     decides which jump statements to keep.
//
// The resulting slice's non-jump statements are a subset of the
// static Agrawal slice's (tested; jumps are set-relative — the repair
// against a smaller base set can need a jump the larger static slice
// makes unnecessary), and it reproduces the criterion observations on
// the traced input (tested). On other inputs it may legitimately
// diverge — that is what makes it dynamic.
package dynslice

import (
	"fmt"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/interp"
)

// Options configures a dynamic slice computation.
type Options struct {
	// Input is the stream the traced run consumes.
	Input []int64
	// Intrinsics forwards to the interpreter.
	Intrinsics map[string]interp.Intrinsic
	// MaxSteps bounds the traced run; 0 means the interpreter default.
	MaxSteps int
	// LastOccurrenceOnly slices on only the final execution of the
	// criterion statement instead of all of them.
	LastOccurrenceOnly bool
}

// Slice computes the dynamic slice of (criterion, input). The returned
// core.Slice carries algorithm name "dynamic"; its Nodes, Lines and
// Materialize behave exactly like the static slices'.
func Slice(a *core.Analysis, c core.Criterion, opts Options) (*core.Slice, error) {
	seeds, err := a.CriterionNodes(c)
	if err != nil {
		return nil, err
	}
	seedSet := map[int]bool{}
	for _, s := range seeds {
		seedSet[s] = true
	}

	res, err := interp.RunCFG(a.CFG, interp.Options{
		Input:        opts.Input,
		Intrinsics:   opts.Intrinsics,
		MaxSteps:     opts.MaxSteps,
		CollectTrace: true,
	})
	if err != nil {
		return nil, fmt.Errorf("dynslice: traced run: %w", err)
	}
	trace := res.Trace

	// Instance-level dependences.
	type instance struct {
		dataDeps []int // trace positions
		ctrlDep  int   // trace position or -1
	}
	insts := make([]instance, len(trace))
	lastDef := map[string]int{} // variable -> defining trace position
	lastExec := map[int]int{}   // node ID -> latest trace position
	var criterionPos []int

	for pos, id := range trace {
		n := a.CFG.Nodes[id]
		inst := instance{ctrlDep: -1}
		for _, v := range dataflow.UsesOf(n) {
			if d, ok := lastDef[v]; ok {
				inst.dataDeps = append(inst.dataDeps, d)
			}
		}
		// Dynamic control dependence: the latest execution of any
		// static control-dependence parent. (At most one parent has
		// executed most recently on the actual path.)
		best := -1
		for _, p := range a.CDG.ParentIDs(id) {
			if a.CFG.Nodes[p].Kind == cfg.KindEntry {
				continue
			}
			if e, ok := lastExec[p]; ok && e > best {
				best = e
			}
		}
		inst.ctrlDep = best
		insts[pos] = inst

		for _, v := range dataflow.DefsOf(n) {
			lastDef[v] = pos
		}
		lastExec[id] = pos
		if seedSet[id] {
			criterionPos = append(criterionPos, pos)
		}
	}
	if len(criterionPos) == 0 {
		// The criterion statement never executed on this input; the
		// dynamic slice is empty apart from the criterion statement
		// itself — but to stay a runnable projection that keeps the
		// criterion unreached, fall back to the static algorithm's
		// treatment: seed with the criterion statements only.
		set := bits.New(a.CFG.NumNodes())
		for _, s := range seeds {
			set.Add(s)
		}
		return finish(a, c, set)
	}
	if opts.LastOccurrenceOnly {
		criterionPos = criterionPos[len(criterionPos)-1:]
	}

	// Statement-granular backward closure (Korel–Laski): group the
	// trace positions by node, then close over nodes — adding a node
	// adds the dependences of all its instances.
	positionsOf := map[int][]int{}
	for pos, id := range trace {
		positionsOf[id] = append(positionsOf[id], pos)
	}
	set := bits.New(a.CFG.NumNodes())
	var stack []int
	addNode := func(id int) {
		if !set.Has(id) {
			set.Add(id)
			stack = append(stack, id)
		}
	}
	if opts.LastOccurrenceOnly {
		// Seed only the node(s) of the final criterion execution; the
		// closure is statement-granular either way, so this matters
		// when several criterion statements share the line.
		addNode(trace[criterionPos[len(criterionPos)-1]])
	} else {
		for _, p := range criterionPos {
			addNode(trace[p])
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pos := range positionsOf[id] {
			for _, q := range insts[pos].dataDeps {
				addNode(trace[q])
			}
			if q := insts[pos].ctrlDep; q >= 0 {
				addNode(trace[q])
			}
		}
	}
	return finish(a, c, set)
}

// finish applies the shared pipeline to the dynamic statement set:
// the slice invariants, the Figure 7 jump repair, and label
// re-association.
func finish(a *core.Analysis, c core.Criterion, set *bits.Set) (*core.Slice, error) {
	set.Add(a.CFG.Entry.ID)
	if err := a.NormalizeSlice(set); err != nil {
		return nil, err
	}
	jumps, rules, traversals, err := a.RepairJumps(set)
	if err != nil {
		return nil, err
	}
	return &core.Slice{
		Analysis:   a,
		Criterion:  c,
		Algorithm:  "dynamic",
		Nodes:      set,
		JumpsAdded: jumps,
		JumpRules:  rules,
		Traversals: traversals,
		Relabeled:  a.RetargetLabels(set),
	}, nil
}
