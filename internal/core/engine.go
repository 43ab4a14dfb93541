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
// least fixpoint over the same slicing relation (below) — and the
// batch property tests assert it.
//
// Both engines carry the Analysis's cancellation callback (nil unless
// the Analysis was built with a cancelable context), and their
// closure walks consult it at a bounded cadence; a cancellation
// surfaces as the error return, which every caller propagates.
type depEngine interface {
	// backwardClosure returns the closure of the seeds as a fresh set.
	backwardClosure(seeds []int) (*bits.Set, error)
	// grow unions seed's closure into set.
	grow(set *bits.Set, seed int) error
}

// Both engines walk one slicing relation: the PDG's dependences plus
// the two slice invariants as edges, read off the per-node tables
// condJumpOf (Section 3's conditional-jump adaptation: a predicate of
// "if (e) goto L" brings its jump) and enclosingSwitch (a statement
// inside a switch brings the switch tag). A closure over it satisfies
// both invariants by construction — including when it pulls in a
// further conditional-jump predicate, as including jumps 11 and 13 of
// the paper's Figure 8 pulls in predicate 9, whose own goto must then
// follow — so Figure 7 needs nothing beyond "add J and the transitive
// closure of J's dependences".

// bfsEngine walks the relation per call from the Analysis's tables.
type bfsEngine struct{ a *Analysis }

func (e bfsEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	set := bits.New(e.a.CFG.NumNodes())
	_, err := e.a.PDG.Grow(set, seeds, e.a.cancelf, e.a.invariants()...)
	return set, err
}
func (e bfsEngine) grow(set *bits.Set, seed int) error {
	_, err := e.a.PDG.Grow(set, []int{seed}, e.a.cancelf, e.a.invariants()...)
	return err
}

// condEngine unions the condensed relation's memoized closures,
// reporting each lookup on the shared condensation to the calling
// view's instruments.
type condEngine struct {
	a *Analysis
	c *pdg.Condensation
}

func (e condEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	set := bits.New(e.a.CFG.NumNodes())
	_, err := e.c.Grow(set, seeds, e.a.cancelf, &e.a.m.closure)
	return set, err
}
func (e condEngine) grow(set *bits.Set, seed int) error {
	_, err := e.c.Grow(set, []int{seed}, e.a.cancelf, &e.a.m.closure)
	return err
}

// invariants returns the per-node edge tables of the two slice
// invariants, in the order every closure and every condensed or SDG
// row takes them: condJumpOf, then enclosingSwitch.
func (a *Analysis) invariants() [][]int { return [][]int{a.condJumpOf, a.enclosingSwitch} }

// relationRow returns node v's row of the slicing relation.
func (a *Analysis) relationRow(v int) []int { return a.PDG.Row(v, a.invariants()...) }

// engine returns the per-call BFS engine, the default for the
// single-criterion entry points.
func (a *Analysis) engine() depEngine { return bfsEngine{a} }

// batchEngine returns the condensation-backed engine, building the
// condensation of the slicing relation on first use and caching it on
// the Analysis so every batch call — and every criterion within one —
// shares the memoized component closures.
func (a *Analysis) batchEngine() depEngine {
	a.batch.once.Do(func() {
		defer a.o.StartSpan("phase.analyze.condense").End()
		rows := make([][]int, a.CFG.NumNodes())
		for v := range rows {
			rows[v] = a.relationRow(v)
		}
		a.batch.cond = pdg.Condense(rows)
	})
	return condEngine{a, a.batch.cond}
}
