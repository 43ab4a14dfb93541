package main

import (
	"fmt"
	"sync"
	"time"
)

// perLayerMetrics is the traced run's ledger, named by module. Every
// workload reports every metric: a layer an operation of the workload
// runs is measured on that operation path; a layer it does not run is
// measured by a sweep over a sample of the workload's own inputs, so
// each number says what the layer costs on those inputs.
//
// Times are means per call, counts means per call unless noted, and
// residual_us is the operation wall time not covered by the layers on
// its path (for daemon operations, the server time not covered by the
// in-handler layers; the rest of the round trip is
// sliced.transport_us). trace_overhead_pct is how much tracing slowed
// the operations: on cold-pipeline the traced re-run against the timed
// pass; on the daemon workloads 0, because their layers are timed in
// shadow replays off the daemon's path.
var perLayerMetrics = []metricDef{
	{"lang.parse_us", "us"},
	{"lang.stmts", "count"},
	{"cfg.build_us", "us"},
	{"dom.postdom_us", "us"},
	{"cdg.build_us", "us"},
	{"dataflow.reach_us", "us"},
	{"pdg.build_us", "us"},
	{"lst.build_us", "us"},
	{"cfg.nodes", "count"},
	{"core.analyze_us", "us"},
	{"core.analyze_residual_us", "us"},
	{"core.sliceall_us", "us"},
	{"core.agrawal_us", "us"},
	{"core.traversals", "count"},
	{"core.jumps_added", "count"},
	{"core.slice_nodes", "count"},
	{"core.format_us", "us"},
	{"core.text_bytes", "bytes"},
	{"core.explain_us", "us"},
	{"sdg.analyze_us", "us"},
	{"sdg.slice_us", "us"},
	{"incremental.splice_us", "us"},
	{"core.reanalyze_patched_us", "us"},
	{"core.reanalyze_partial_us", "us"},
	{"core.reanalyze_full_us", "us"},
	{"incr.patched", "count"}, // totals over the run's operations
	{"incr.partial", "count"},
	{"incr.full", "count"},
	{"slicecache.keyof_us", "us"},
	{"slicecache.get_hit_us", "us"},
	{"slicecache.put_us", "us"},
	{"core.rebind_us", "us"},
	{"slicecache.hit_ratio", "ratio"},
	{"sliced.rtt_slice_us", "us"},
	{"sliced.rtt_explain_us", "us"},
	{"sliced.rtt_sdg_us", "us"},
	{"sliced.rtt_patch_us", "us"},
	{"sliced.server_us", "us"},
	{"sliced.transport_us", "us"},
	{"sliced.bytes_out", "bytes"},
	{"json.encode_us", "us"},
	{"op_wall_us", "us"},
	{"residual_us", "us"},
	{"trace_overhead_pct", "%"},
	{"core.agrawal_bh_mismatch", "count"}, // totals over the sweep sample
	{"sdg.inline_mismatch", "count"},
	{"oracle.slices_checked", "count"},
}

// totalMetrics are reported as run totals rather than means.
var totalMetrics = map[string]bool{
	"incr.patched": true, "incr.partial": true, "incr.full": true,
	"core.agrawal_bh_mismatch": true, "sdg.inline_mismatch": true,
	"oracle.slices_checked": true, "trace_overhead_pct": true,
}

type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }

// ledger accumulates a traced run. It is safe for concurrent use.
type ledger struct {
	mu     sync.Mutex
	path   map[string]*acc // measured on operation paths
	sweep  map[string]*acc // measured by sweeps over sample inputs
	totals map[string]float64
	wall   acc // operation wall time, µs
	resid  acc // operation residual, µs
}

func newLedger() *ledger {
	return &ledger{path: map[string]*acc{}, sweep: map[string]*acc{}, totals: map[string]float64{}}
}

func (l *ledger) record(m map[string]*acc, name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := m[name]
	if a == nil {
		a = &acc{}
		m[name] = a
	}
	a.add(v)
}

// onPath records one measurement made on an operation's path.
func (l *ledger) onPath(name string, v float64) { l.record(l.path, name, v) }

// swept records one measurement made by a sweep.
func (l *ledger) swept(name string, v float64) { l.record(l.sweep, name, v) }

// total adds to a run total.
func (l *ledger) total(name string, v float64) {
	l.mu.Lock()
	l.totals[name] += v
	l.mu.Unlock()
}

// op records one operation's wall time and the part of it its layer
// spans cover.
func (l *ledger) op(wall, covered time.Duration) {
	l.mu.Lock()
	l.wall.add(us(wall))
	l.resid.add(us(wall - covered))
	l.mu.Unlock()
}

// values resolves every per-layer metric. A mean metric nothing
// measured is a harness bug and fails the run.
func (l *ledger) values() (map[string]float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]float64{}
	for _, d := range perLayerMetrics {
		switch {
		case totalMetrics[d.name]:
			out[d.name] = l.totals[d.name]
		case d.name == "op_wall_us":
			out[d.name] = mean(&l.wall)
		case d.name == "residual_us":
			out[d.name] = mean(&l.resid)
		case l.path[d.name] != nil:
			out[d.name] = mean(l.path[d.name])
		case l.sweep[d.name] != nil:
			out[d.name] = mean(l.sweep[d.name])
		default:
			return nil, fmt.Errorf("ledger: %s was not measured", d.name)
		}
	}
	if l.wall.n == 0 {
		return nil, fmt.Errorf("ledger: no traced operations")
	}
	return out, nil
}

func mean(a *acc) float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spans times the layers of one operation: each call runs f, records
// its duration under name and adds it to the operation's covered time.
// A nil *spans just runs f, which is the untraced path.
type spans struct {
	l       *ledger
	covered time.Duration
	last    time.Duration // duration of the latest span
}

func (s *spans) time(name string, f func()) {
	if s == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	s.last = time.Since(t0)
	s.covered += s.last
	s.l.onPath(name, us(s.last))
}
