package core

import (
	"context"
	"fmt"
)

// Cooperative cancellation. An Analysis built with
// AnalyzeObservedContext carries its request's context, and every
// phase of the pipeline consults it at bounded intervals: Analyze
// checks between construction phases, the Figure 7/12/13 fixpoint
// loops check once per traversal and every cancelCheckJumps candidate
// examinations, and the dependence-closure engines check every few
// hundred node visits (internal/pdg's cancelCheckNodes and
// cancelCheckComps). A canceled context therefore aborts an in-flight
// analysis within a bounded amount of work, the observed cancellation
// is counted under core.cancellations, and the entry point returns an
// error wrapping context.Canceled or context.DeadlineExceeded, named
// after the site that noticed, for the caller to classify.
//
// An Analysis built without a cancelable context (Analyze, or
// AnalyzeObservedContext with context.Background) pays a single
// nil-check per cadence interval — BenchmarkSliceAll gates that this
// stays within the perf envelope.

// cancelCheckJumps is the fixpoint-loop cadence: the jump-detection
// worklist loops consult the context once per this many candidate
// examinations (and always once per traversal pass).
const cancelCheckJumps = 64

// bindContext attaches a request context to the Analysis. Contexts
// that can never be canceled (nil, Background, or any other context
// without a Done channel) leave cancellation disabled, keeping the
// hot paths on their one-nil-check cost.
func (a *Analysis) bindContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	a.ctx = ctx
	a.cancelf = func() error { return a.checkCancel("closure") }
}

// Context returns the context the Analysis was built with
// (context.Background when none was).
func (a *Analysis) Context() context.Context {
	if a.ctx == nil {
		return context.Background()
	}
	return a.ctx
}

// checkCancel reports pending cancellation: nil while the Analysis's
// context (if any) is live, and otherwise an error wrapping the
// context's error and naming the detection site, after counting it
// under core.cancellations.
func (a *Analysis) checkCancel(where string) error {
	if a.ctx == nil {
		return nil
	}
	if err := a.ctx.Err(); err != nil {
		return a.canceled(where, err)
	}
	return nil
}

// canceled records one observed cancellation and wraps err with the
// detection site.
func (a *Analysis) canceled(where string, err error) error {
	a.m.cancellations.Add(1)
	return fmt.Errorf("core: %s: %w", where, err)
}
