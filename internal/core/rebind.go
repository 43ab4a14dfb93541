package core

import (
	"context"

	"jumpslice/internal/obs"
)

// Rebind returns a view of the Analysis bound to a different request:
// a shallow copy sharing every derived structure — flowgraph, trees,
// dependence graphs, precomputed worklists, the lazily-built batch
// condensation with its memoized closures, and the program set with
// its summary edges — but carrying its own context, recorder and
// tracer, which the view's ProgramSet inherits. It is the primitive
// the analysis cache is built on: one Analysis is computed once,
// cached in a detached form (Rebind(nil, reg, nil)), and each request
// that hits the cache gets a view wired to its own deadline and trace
// journal.
//
// Rebind is cheap (one struct copy, no graph work) and safe to call
// concurrently; the views may slice concurrently because everything
// they share is immutable after Analyze except the batch condensation
// and the program set's summary edges, which synchronize internally.
// A nil ctx (or one that can never be canceled) disables cancellation
// checks on the view; a nil rec means obs.Nop; a nil tr disables
// tracing.
//
// Whichever view first triggers the batch condensation instruments it
// with that view's recorder and tracer for its lifetime — views built
// from one daemon share a registry, so in practice this only pins
// per-component cache events to the building request's trace.
func (a *Analysis) Rebind(ctx context.Context, rec obs.Recorder, tr *obs.Tracer) *Analysis {
	cp := *a // legal: Analysis holds its lock-bearing batch state by pointer
	cp.rec = obs.OrNop(rec)
	cp.m.resolve(cp.rec)
	cp.tr = tr
	cp.ctx, cp.cancelf = nil, nil
	if ctx != nil {
		cp.bindContext(ctx)
	}
	return &cp
}
