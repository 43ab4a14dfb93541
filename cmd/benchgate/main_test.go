package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jumpslice/internal/obs"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: jumpslice
BenchmarkFigure01-8        	  500000	      2215 ns/op
BenchmarkSliceAll/independent-agrawal-8 	      20	  52373919 ns/op
BenchmarkSliceAll/batch-sliceall-8      	      50	  21342614 ns/op
--- BENCH: BenchmarkSliceAll
    bench_test.go:221: criteria: 100 over 34 programs
PASS
ok  	jumpslice	4.2s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkFigure01", Iters: 500000, NsPerOp: 2215},
		{Name: "BenchmarkSliceAll/independent-agrawal", Iters: 20, NsPerOp: 52373919},
		{Name: "BenchmarkSliceAll/batch-sliceall", Iters: 50, NsPerOp: 21342614},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("benchmark %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestGate(t *testing.T) {
	baseline := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkRetired", NsPerOp: 5},
	}
	pr := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1999}, // within 2x
		{Name: "BenchmarkB", NsPerOp: 2001}, // beyond 2x
		{Name: "BenchmarkNew", NsPerOp: 9e9},
	}
	regs, compared := Gate(baseline, pr, 2.0)
	if compared != 2 {
		t.Errorf("compared = %d, want 2 (retired and new benchmarks skipped)", compared)
	}
	if len(regs) != 1 || regs[0].Name != "BenchmarkB" {
		t.Errorf("regressions = %+v, want exactly BenchmarkB", regs)
	}
}

func TestPhasesOf(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Observer{Reg: reg}.StartSpan("phase.analyze").End()
	reg.Histogram("core.slice_nodes", obs.UnitCount).Observe(12)
	phases := PhasesOf(reg.Snapshot())
	if len(phases) != 1 || phases[0].Name != "phase.analyze" || phases[0].Count != 1 {
		t.Errorf("phases = %+v, want one phase.analyze with count 1", phases)
	}
}

// TestEndToEndGate drives the CLI through the three CI steps: build a
// report, regenerate a baseline from it, gate a slowed-down run.
func TestEndToEndGate(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}

	// Metrics snapshot with one phase histogram.
	reg := obs.NewRegistry()
	obs.Observer{Reg: reg}.StartSpan("phase.analyze").End()
	metricsPath := filepath.Join(dir, "metrics.json")
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metricsPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Step 1: write the baseline (no gate).
	basePath := filepath.Join(dir, "baseline.json")
	var sb strings.Builder
	if err := run([]string{"-bench", benchPath, "-metrics", metricsPath, "-out", basePath}, &sb); err != nil {
		t.Fatal(err)
	}

	// Step 2: same numbers gate cleanly against themselves.
	prPath := filepath.Join(dir, "pr.json")
	sb.Reset()
	if err := run([]string{"-bench", benchPath, "-metrics", metricsPath,
		"-baseline", basePath, "-out", prPath}, &sb); err != nil {
		t.Fatalf("self-gate failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "gate: ok") {
		t.Errorf("missing gate confirmation:\n%s", sb.String())
	}
	var rep Report
	prData, err := os.ReadFile(prPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(prData, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 || len(rep.Phases) != 1 {
		t.Errorf("report has %d benchmarks, %d phases; want 3 and 1", len(rep.Benchmarks), len(rep.Phases))
	}

	// Step 3: a 3x-slower run fails the gate.
	slow := strings.ReplaceAll(sampleBench, "      2215 ns/op", "      6645 ns/op")
	slowPath := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(slowPath, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	err = run([]string{"-bench", slowPath, "-baseline", basePath}, &sb)
	if err == nil {
		t.Fatalf("3x regression passed the gate:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION BenchmarkFigure01") {
		t.Errorf("missing regression line:\n%s", sb.String())
	}
}

// TestUpdateBaseline covers the -update lifecycle: bootstrap when no
// baseline exists, rewrite after a passing gate, and refusal to ratify
// a failing run.
func TestUpdateBaseline(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "baseline.json")

	readBaseline := func() Report {
		t.Helper()
		data, err := os.ReadFile(basePath)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Bootstrap: the baseline file does not exist yet.
	var sb strings.Builder
	if err := run([]string{"-bench", benchPath, "-baseline", basePath, "-update"}, &sb); err != nil {
		t.Fatalf("bootstrap failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "bootstrapping") || !strings.Contains(sb.String(), "updated "+basePath) {
		t.Errorf("missing bootstrap confirmation:\n%s", sb.String())
	}
	if got := readBaseline(); len(got.Benchmarks) != 3 {
		t.Errorf("bootstrapped baseline has %d benchmarks, want 3", len(got.Benchmarks))
	}

	// A faster passing run rewrites the baseline in place.
	fast := strings.ReplaceAll(sampleBench, "      2215 ns/op", "      1111 ns/op")
	fastPath := filepath.Join(dir, "fast.txt")
	if err := os.WriteFile(fastPath, []byte(fast), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"-bench", fastPath, "-baseline", basePath, "-update"}, &sb); err != nil {
		t.Fatalf("update after pass failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "gate: ok") || !strings.Contains(sb.String(), "updated "+basePath) {
		t.Errorf("missing gate/update confirmation:\n%s", sb.String())
	}
	if got := readBaseline(); got.Benchmarks[0].NsPerOp != 1111 {
		t.Errorf("baseline not rewritten: BenchmarkFigure01 = %v ns/op, want 1111", got.Benchmarks[0].NsPerOp)
	}

	// A regressing run fails the gate and must leave the baseline alone.
	slow := strings.ReplaceAll(sampleBench, "      2215 ns/op", "      9999 ns/op")
	slowPath := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(slowPath, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"-bench", slowPath, "-baseline", basePath, "-update"}, &sb); err == nil {
		t.Fatalf("regression ratified itself:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "updated ") {
		t.Errorf("failing gate still claimed an update:\n%s", sb.String())
	}
	if got := readBaseline(); got.Benchmarks[0].NsPerOp != 1111 {
		t.Errorf("failing gate rewrote the baseline: got %v ns/op", got.Benchmarks[0].NsPerOp)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Error("expected error without -bench")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("no benchmarks here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", empty}, &sb); err == nil {
		t.Error("expected error for benchless input")
	}
	if err := run([]string{"-bench", empty, "-update"}, &sb); err == nil || !strings.Contains(err.Error(), "-update requires -baseline") {
		t.Errorf("-update without -baseline: err = %v, want flag-combination error", err)
	}
}

func TestRatioFlagsSet(t *testing.T) {
	var f ratioFlags
	good := []struct {
		in       string
		num, den string
		max      float64
	}{
		{"BenchmarkA:BenchmarkB:0.05", "BenchmarkA", "BenchmarkB", 0.05},
		{"BenchmarkIncrementalEdit/incremental:BenchmarkIncrementalEdit/cold:0.05",
			"BenchmarkIncrementalEdit/incremental", "BenchmarkIncrementalEdit/cold", 0.05},
		{"BenchmarkA:BenchmarkB:2", "BenchmarkA", "BenchmarkB", 2},
	}
	for _, g := range good {
		if err := f.Set(g.in); err != nil {
			t.Fatalf("Set(%q) = %v", g.in, err)
		}
		got := f[len(f)-1]
		if got.Num != g.num || got.Den != g.den || got.Max != g.max {
			t.Errorf("Set(%q) parsed %+v, want {%s %s %g}", g.in, got, g.num, g.den, g.max)
		}
	}
	if s := f.String(); !strings.Contains(s, "BenchmarkA:BenchmarkB:0.05") {
		t.Errorf("String() = %q, missing first gate", s)
	}
	for _, bad := range []string{"", "NoColons", "OnlyOne:0.5", "A:B:", "A:B:zero", "A:B:-1", "A:B:0", ":B:0.5", "A::0.5"} {
		before := len(f)
		if err := f.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted malformed gate: %+v", bad, f[len(f)-1])
		}
		if len(f) != before {
			t.Errorf("Set(%q) appended despite error", bad)
		}
	}
}

func TestGateRatios(t *testing.T) {
	benchmarks := []Benchmark{
		{Name: "BenchmarkCold", NsPerOp: 1000},
		{Name: "BenchmarkIncr", NsPerOp: 30},
	}
	res, err := GateRatios(benchmarks, []ratioGate{{Num: "BenchmarkIncr", Den: "BenchmarkCold", Max: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Ratio != 0.03 || res[0].Max != 0.05 {
		t.Errorf("results = %+v, want one 0.03 (max 0.05)", res)
	}

	// A gate naming an absent benchmark must be a hard error, not a skip.
	if _, err := GateRatios(benchmarks, []ratioGate{{Num: "BenchmarkMissing", Den: "BenchmarkCold", Max: 1}}); err == nil || !strings.Contains(err.Error(), "BenchmarkMissing") {
		t.Errorf("missing numerator: err = %v, want named error", err)
	}
	if _, err := GateRatios(benchmarks, []ratioGate{{Num: "BenchmarkIncr", Den: "BenchmarkMissing", Max: 1}}); err == nil || !strings.Contains(err.Error(), "BenchmarkMissing") {
		t.Errorf("missing denominator: err = %v, want named error", err)
	}
	zero := append(benchmarks, Benchmark{Name: "BenchmarkZero", NsPerOp: 0})
	if _, err := GateRatios(zero, []ratioGate{{Num: "BenchmarkIncr", Den: "BenchmarkZero", Max: 1}}); err == nil {
		t.Error("zero denominator accepted")
	}
}

// TestMedianOfRepeatedLines: a benchmark run with -count n is judged
// on its median ns/op, by both the ratio and the baseline gate — not
// on whichever repeated line came last.
func TestMedianOfRepeatedLines(t *testing.T) {
	got := medianNsPerOp([]Benchmark{
		{Name: "BenchmarkOdd", NsPerOp: 90}, {Name: "BenchmarkEven", NsPerOp: 4},
		{Name: "BenchmarkOdd", NsPerOp: 10}, {Name: "BenchmarkEven", NsPerOp: 1},
		{Name: "BenchmarkOdd", NsPerOp: 30}, {Name: "BenchmarkEven", NsPerOp: 2},
		{Name: "BenchmarkOne", NsPerOp: 7}, {Name: "BenchmarkEven", NsPerOp: 100},
	})
	want := map[string]float64{"BenchmarkOdd": 30, "BenchmarkEven": 3, "BenchmarkOne": 7}
	if len(got) != len(want) {
		t.Fatalf("medians = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("median %s = %g, want %g", name, got[name], w)
		}
	}

	// One noisy repeat (the last line, 0.065) must not fail a ratio
	// whose median (30/1000) holds.
	var runs []Benchmark
	for _, incr := range []float64{29, 31, 30, 24, 65} {
		runs = append(runs, Benchmark{Name: "BenchmarkIncr", NsPerOp: incr}, Benchmark{Name: "BenchmarkCold", NsPerOp: 1000})
	}
	res, err := GateRatios(runs, []ratioGate{{Num: "BenchmarkIncr", Den: "BenchmarkCold", Max: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Ratio != 0.03 {
		t.Errorf("ratio = %+v, want the median 30/1000", res)
	}

	// The baseline gate compares medians too, once per name: a
	// baseline median of 30 against the run's 30.
	regs, compared := Gate([]Benchmark{{Name: "BenchmarkIncr", NsPerOp: 20}, {Name: "BenchmarkIncr", NsPerOp: 40}}, runs, 2.0)
	if compared != 1 || len(regs) != 0 {
		t.Errorf("Gate = %v, %d compared; want one name, no regression", regs, compared)
	}
	regs, _ = Gate([]Benchmark{{Name: "BenchmarkIncr", NsPerOp: 10}}, runs, 2.0)
	if len(regs) != 1 || regs[0].PR != 30 || regs[0].Base != 10 {
		t.Errorf("Gate = %v, want one regression at the median 30 vs 10", regs)
	}
}

// TestRatioGateEndToEnd drives run() with -ratio: a holding ratio
// passes and lands in the report; a broken ratio fails the run and
// must not ratify a baseline via -update.
func TestRatioGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}

	// batch-sliceall (~21ms) is well under 0.5x independent-agrawal (~52ms).
	gate := "BenchmarkSliceAll/batch-sliceall:BenchmarkSliceAll/independent-agrawal:0.5"
	outPath := filepath.Join(dir, "report.json")
	var sb strings.Builder
	if err := run([]string{"-bench", benchPath, "-ratio", gate, "-out", outPath}, &sb); err != nil {
		t.Fatalf("passing ratio failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "ratio: ") || !strings.Contains(sb.String(), "ok") {
		t.Errorf("missing ratio confirmation:\n%s", sb.String())
	}
	var rep Report
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Ratios) != 1 || rep.Ratios[0].Max != 0.5 || rep.Ratios[0].Ratio <= 0 {
		t.Errorf("report ratios = %+v, want one evaluated gate", rep.Ratios)
	}

	// Tighten the gate until it breaks: the same pair cannot hold 0.1.
	tight := "BenchmarkSliceAll/batch-sliceall:BenchmarkSliceAll/independent-agrawal:0.1"
	basePath := filepath.Join(dir, "baseline.json")
	sb.Reset()
	err = run([]string{"-bench", benchPath, "-ratio", tight, "-baseline", basePath, "-update"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "ratio gate") {
		t.Fatalf("broken ratio passed: err = %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "RATIO EXCEEDED") {
		t.Errorf("missing RATIO EXCEEDED line:\n%s", sb.String())
	}
	if _, statErr := os.Stat(basePath); statErr == nil {
		t.Error("failing ratio gate still bootstrapped a baseline via -update")
	}

	// A gate naming a benchmark outside the run is a configuration error.
	sb.Reset()
	if err := run([]string{"-bench", benchPath, "-ratio", "BenchmarkNope:BenchmarkFigure01:1"}, &sb); err == nil {
		t.Error("gate on absent benchmark accepted")
	}
}

// sliceloadJSON fabricates a `sliceload -json` report with the given
// tail latency and shed rate.
func sliceloadJSON(t *testing.T, dir string, p99 time.Duration, shedRate float64) string {
	t.Helper()
	report := map[string]any{
		"requests":  int64(10000),
		"shed":      int64(float64(10000) * shedRate),
		"shed_rate": shedRate,
		"latency": map[string]int64{
			"samples": 9000,
			"p50_ns":  (p99 / 10).Nanoseconds(),
			"p95_ns":  (p99 / 2).Nanoseconds(),
			"p99_ns":  p99.Nanoseconds(),
			"p999_ns": (2 * p99).Nanoseconds(),
			"max_ns":  (3 * p99).Nanoseconds(),
		},
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sliceload.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSliceloadGate(t *testing.T) {
	dir := t.TempDir()
	path := sliceloadJSON(t, dir, 40*time.Millisecond, 0.01)

	// Within both ceilings: passes, merges into -out, no -bench needed.
	outPath := filepath.Join(dir, "report.json")
	var sb strings.Builder
	if err := run([]string{"-sliceload", path, "-gate-p99", "100ms", "-gate-shed", "0.05",
		"-out", outPath}, &sb); err != nil {
		t.Fatalf("in-budget load report failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "sliceload gate: ok") {
		t.Errorf("missing gate confirmation:\n%s", sb.String())
	}
	var rep Report
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sliceload == nil || rep.Sliceload.Latency.P99NS != (40*time.Millisecond).Nanoseconds() {
		t.Fatalf("sliceload summary not merged: %+v", rep.Sliceload)
	}

	// p99 over the ceiling fails.
	sb.Reset()
	if err := run([]string{"-sliceload", path, "-gate-p99", "10ms"}, &sb); err == nil {
		t.Fatalf("p99 4x over the ceiling passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "SLICELOAD GATE p99") {
		t.Errorf("missing p99 violation line:\n%s", sb.String())
	}

	// Shed rate over the ceiling fails.
	sb.Reset()
	if err := run([]string{"-sliceload", path, "-gate-shed", "0.005"}, &sb); err == nil {
		t.Fatalf("shed rate 2x over the ceiling passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "SLICELOAD GATE shed rate") {
		t.Errorf("missing shed violation line:\n%s", sb.String())
	}

	// Ceilings without a report to apply them to are an error.
	if err := run([]string{"-gate-p99", "10ms"}, &sb); err == nil {
		t.Fatal("-gate-p99 without -sliceload accepted")
	}
	// An empty report can't pass a gate silently.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"requests":0,"latency":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"-sliceload", empty, "-gate-p99", "10ms"}, &sb); err == nil {
		t.Fatalf("sample-free report passed the gate:\n%s", sb.String())
	}
}
