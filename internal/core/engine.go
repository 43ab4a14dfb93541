package core

import (
	"jumpslice/internal/bits"
	"jumpslice/internal/pdg"
)

// depEngine abstracts how backward dependence closures are computed.
// Every slicing algorithm in this package is written against it, so
// the same Figure-7 logic runs on either engine:
//
//   - bfsEngine walks the PDG per call (the paper's formulation;
//     no setup cost, right for one-off slices), and
//   - condEngine unions memoized SCC-component closures (word-parallel
//     bitset work shared across criteria; right for batch slicing).
//
// The two are interchangeable by construction — both compute the same
// least fixpoint over the same dependence relation — and the batch
// property tests assert it.
//
// Both engines carry the Analysis's cancellation callback (nil unless
// the Analysis was built with a cancelable context), and their
// closure walks consult it at a bounded cadence; a cancellation
// surfaces as the error return, which every caller propagates.
type depEngine interface {
	// backwardClosure returns the closure of the seeds as a fresh set.
	backwardClosure(seeds []int) (*bits.Set, error)
	// grow unions seed's closure into set, reporting whether set grew.
	grow(set *bits.Set, seed int) (bool, error)
	// closuresNormalized reports whether closures from this engine
	// already satisfy the slice invariants (conditional-jump
	// adaptation and switch enclosure), making normalizeSlice a no-op.
	closuresNormalized() bool
}

type bfsEngine struct {
	p      *pdg.Graph
	cancel func() error
}

func (e bfsEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	return e.p.BackwardClosureCancel(seeds, e.cancel)
}
func (e bfsEngine) grow(set *bits.Set, seed int) (bool, error) {
	return e.p.GrowClosureCancel(set, seed, e.cancel)
}
func (e bfsEngine) closuresNormalized() bool { return false }

// condEngine reports each lookup on the shared condensation to the
// calling view's instruments.
type condEngine struct {
	c      *pdg.Condensation
	cancel func() error
	in     *pdg.Instruments
}

func (e condEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	return e.c.BackwardClosureCancel(seeds, e.cancel, e.in)
}
func (e condEngine) grow(set *bits.Set, seed int) (bool, error) {
	return e.c.GrowClosureCancel(set, seed, e.cancel, e.in)
}
func (e condEngine) closuresNormalized() bool { return true }

// engine returns the per-call BFS engine, the default for the
// single-criterion entry points.
func (a *Analysis) engine() depEngine { return bfsEngine{a.PDG, a.cancelf} }

// batchEngine returns the condensation-backed engine, building the
// condensation on first use and caching it on the Analysis so every
// batch call — and every criterion within one — shares the memoized
// component closures.
//
// The condensed relation is the PDG's dependence edges augmented with
// the two invariants normalizeSlice maintains, encoded as edges:
// predicate → its conditional jump (Section 3's adaptation) and
// statement → its enclosing switch tag. A slice built as a union of
// closures over the augmented relation is closed under both
// invariants by construction — the same least fixpoint the BFS
// engine's grow-then-normalize loop computes — so the batch path
// skips the normalization passes entirely.
func (a *Analysis) batchEngine() depEngine {
	a.batch.once.Do(func() {
		if a.batch.cond.Load() != nil {
			return // pre-seeded by the incremental engine
		}
		defer a.o.StartSpan("phase.analyze.condense").End()
		n := a.CFG.NumNodes()
		aug := make([][]int, n)
		extra := make(map[int][]int, len(a.condJumps)+len(a.switchNodes))
		for _, cj := range a.condJumps {
			extra[cj.pred] = append(extra[cj.pred], cj.jump)
		}
		for _, id := range a.switchNodes {
			extra[id] = append(extra[id], a.enclosingSwitch[id])
		}
		for v := 0; v < n; v++ {
			deps := a.PDG.Deps(v)
			if add := extra[v]; len(add) > 0 {
				merged := make([]int, 0, len(deps)+len(add))
				merged = append(merged, deps...)
				merged = append(merged, add...)
				aug[v] = merged
			} else {
				aug[v] = deps
			}
		}
		a.batch.cond.Store(pdg.Condense(aug))
	})
	return condEngine{a.batch.cond.Load(), a.cancelf, &a.m.closure}
}
