package core

import (
	"context"

	"jumpslice/internal/obs"
)

// Rebind returns a view of the Analysis bound to a different request:
// a shallow copy sharing every derived structure — flowgraph, trees,
// dependence graphs, precomputed worklists, the batch condensation
// with its memoized closures (built once, by whichever view first
// slices in batch), and the program set with its summary edges — but
// carrying its own context, registry and span log, which the view's
// ProgramSet inherits. It is the primitive
// the analysis cache is built on: one Analysis is computed once,
// cached in a detached form (Rebind(nil, reg, nil)), and each request
// that hits the cache gets a view wired to its own deadline and phase
// timings.
//
// Rebind is cheap (one struct copy, no graph work) and safe to call
// concurrently; the views may slice concurrently because everything
// they share is immutable after Analyze except the batch condensation
// and the program set's summary edges, which synchronize internally.
// A nil ctx (or one that can never be canceled) disables cancellation
// checks on the view; a nil reg or spans disables metrics or phase
// collection. Every closure lookup a view makes on the shared
// condensation is counted in that view's own registry.
func (a *Analysis) Rebind(ctx context.Context, reg *obs.Registry, spans *obs.SpanLog) *Analysis {
	cp := *a // legal: Analysis holds its lock-bearing batch state by pointer
	cp.observe(obs.Observer{Reg: reg, Spans: spans})
	cp.ctx, cp.cancelf = nil, nil
	if ctx != nil {
		cp.bindContext(ctx)
	}
	return &cp
}
