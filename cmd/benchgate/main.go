// Command benchgate is the CI performance gate. It merges the two
// performance artifacts a CI run produces —
//
//   - the output of `go test -bench` (ns/op per benchmark), and
//   - a pipeline metrics snapshot from `slicebench -metrics`
//     (per-phase span histograms)
//
// — into one machine-readable report (BENCH_PR.json), and compares
// the benchmark numbers against a checked-in baseline, failing with a
// nonzero exit when any shared benchmark regressed beyond the allowed
// ratio (default 2×: CI runners are noisy; a doubling is a real
// regression, not jitter).
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkSliceAll -benchtime 20x . > bench.txt
//	slicebench -exp precision -seeds 20 -metrics metrics.json
//	benchgate -bench bench.txt -metrics metrics.json \
//	    -baseline BENCH_baseline.json -out BENCH_PR.json
//
// Benchmark names are normalized by stripping the trailing GOMAXPROCS
// suffix (BenchmarkX-8 → BenchmarkX) so reports compare across
// machines.
//
// Besides the cross-run baseline gate, -ratio pins relationships
// within one run: `-ratio Num:Den:max` (repeatable) fails when
// benchmark Num's ns/op exceeds max times benchmark Den's. This is
// how machine-independent contracts are enforced — e.g.
//
//	-ratio 'BenchmarkIncrementalEdit/incremental:BenchmarkIncrementalEdit/cold:0.05'
//
// asserts an incremental one-line re-analysis stays under 5% of the
// cold pipeline, on whatever hardware CI happens to run.
//
// A third artifact joins when a CI run drives a cluster: -sliceload
// reads a `sliceload -json` report and merges its tail-latency
// numbers into the output. -gate-p99 and -gate-shed turn them into
// absolute gates — the run fails when the exact p99 exceeds the given
// duration or the shed rate exceeds the given fraction. These are
// fixed ceilings rather than baseline ratios: a load test's contract
// ("p99 under a second at this request rate, shedding under 5%") is
// machine-sized by the CI job itself. With -sliceload present, -bench
// becomes optional — a cluster-smoke job gates on the load report
// alone.
//
// Baselines are maintained with -update: after the gate passes, the
// baseline file is rewritten with the merged report of the current
// run, so accepting a new performance floor is one flag on a green
// run instead of a hand-edited JSON file. A failing gate refuses to
// update — a regression cannot ratify itself. When the baseline file
// does not exist yet, -update bootstraps it from the current run.
// (Running with -out pointed at the baseline and no -baseline still
// works, but skips the gate entirely.)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"jumpslice/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// Report is the merged performance report (BENCH_PR.json).
type Report struct {
	// Benchmarks are the parsed `go test -bench` results, in input
	// order, names normalized (no -GOMAXPROCS suffix).
	Benchmarks []Benchmark `json:"benchmarks"`
	// Phases summarizes the pipeline span histograms ("phase.*") of
	// the metrics snapshot, sorted by name.
	Phases []Phase `json:"phases,omitempty"`
	// Ratios are the evaluated -ratio assertions of this run.
	Ratios []RatioResult `json:"ratios,omitempty"`
	// Sliceload is the merged load-test summary (-sliceload).
	Sliceload *SliceloadSummary `json:"sliceload,omitempty"`
}

// SliceloadSummary is the slice of a `sliceload -json` report the
// gate consumes: exact tail percentiles and the shed rate.
type SliceloadSummary struct {
	Requests int64   `json:"requests"`
	Shed     int64   `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	Latency  struct {
		Samples int64 `json:"samples"`
		P50NS   int64 `json:"p50_ns"`
		P95NS   int64 `json:"p95_ns"`
		P99NS   int64 `json:"p99_ns"`
		P999NS  int64 `json:"p999_ns"`
		MaxNS   int64 `json:"max_ns"`
	} `json:"latency"`
}

// GateSliceload applies the absolute tail-latency ceilings to a load
// report. Zero ceilings skip their gate.
func GateSliceload(s *SliceloadSummary, maxP99 time.Duration, maxShed float64) []string {
	var violations []string
	if s.Latency.Samples == 0 {
		return []string{"sliceload report has no latency samples"}
	}
	if maxP99 > 0 && s.Latency.P99NS > maxP99.Nanoseconds() {
		violations = append(violations, fmt.Sprintf("p99 %s exceeds -gate-p99 %s",
			time.Duration(s.Latency.P99NS), maxP99))
	}
	if maxShed > 0 && s.ShedRate > maxShed {
		violations = append(violations, fmt.Sprintf("shed rate %.4f exceeds -gate-shed %.4f",
			s.ShedRate, maxShed))
	}
	return violations
}

// Benchmark is one `go test -bench` result line.
type Benchmark struct {
	Name    string  `json:"name"`
	Iters   int64   `json:"iterations"`
	NsPerOp float64 `json:"ns_per_op"`
}

// Phase is one pipeline phase's aggregate timing.
type Phase struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// Regression is one gate violation.
type Regression struct {
	Name     string
	Base, PR float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%.2fx)", r.Name, r.PR, r.Base, r.PR/r.Base)
}

// ratioGate is one -ratio assertion: benchmark Num's ns/op must not
// exceed Max times benchmark Den's ns/op within the same run. Unlike
// the baseline gate, which catches regressions against history, a
// ratio gate pins a relationship two benchmarks of one run must keep
// regardless of machine speed — e.g. an incremental re-analysis
// staying under 5% of the cold pipeline.
type ratioGate struct {
	Num, Den string
	Max      float64
}

// ratioFlags collects repeatable -ratio Num:Den:max flags.
type ratioFlags []ratioGate

func (f *ratioFlags) String() string {
	parts := make([]string, len(*f))
	for i, g := range *f {
		parts[i] = fmt.Sprintf("%s:%s:%g", g.Num, g.Den, g.Max)
	}
	return strings.Join(parts, ",")
}

func (f *ratioFlags) Set(v string) error {
	i := strings.LastIndex(v, ":")
	if i < 0 {
		return fmt.Errorf("want Num:Den:max, got %q", v)
	}
	max, err := strconv.ParseFloat(v[i+1:], 64)
	if err != nil || max <= 0 {
		return fmt.Errorf("bad max ratio in %q (want a positive float)", v)
	}
	pair := v[:i]
	j := strings.Index(pair, ":")
	if j <= 0 || j == len(pair)-1 {
		return fmt.Errorf("want Num:Den:max, got %q", v)
	}
	*f = append(*f, ratioGate{Num: pair[:j], Den: pair[j+1:], Max: max})
	return nil
}

// RatioResult is one evaluated -ratio assertion.
type RatioResult struct {
	Num   string  `json:"num"`
	Den   string  `json:"den"`
	Ratio float64 `json:"ratio"`
	Max   float64 `json:"max"`
}

// GateRatios evaluates ratio assertions against one run's benchmarks,
// each benchmark judged on its median ns/op over repeated lines
// (`go test -count n`). A gate naming a benchmark the run did not produce is an error — a
// silently skipped assertion would pass forever.
func GateRatios(benchmarks []Benchmark, gates []ratioGate) ([]RatioResult, error) {
	byName := medianNsPerOp(benchmarks)
	out := make([]RatioResult, 0, len(gates))
	for _, g := range gates {
		num, ok := byName[g.Num]
		if !ok {
			return nil, fmt.Errorf("-ratio: benchmark %q not in this run", g.Num)
		}
		den, ok := byName[g.Den]
		if !ok {
			return nil, fmt.Errorf("-ratio: benchmark %q not in this run", g.Den)
		}
		if den <= 0 {
			return nil, fmt.Errorf("-ratio: benchmark %q has no time to divide by", g.Den)
		}
		out = append(out, RatioResult{Num: g.Num, Den: g.Den, Ratio: num / den, Max: g.Max})
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	benchPath := fs.String("bench", "", "`go test -bench` output to parse (required)")
	metricsPath := fs.String("metrics", "", "slicebench -metrics snapshot to merge (optional)")
	baselinePath := fs.String("baseline", "", "baseline report to gate against (optional)")
	outPath := fs.String("out", "", "write the merged report here (optional)")
	maxRatio := fs.Float64("max-ratio", 2.0, "fail when PR ns/op exceeds baseline by this factor")
	update := fs.Bool("update", false, "rewrite -baseline from this run after the gate passes")
	sliceloadPath := fs.String("sliceload", "", "`sliceload -json` report to merge and gate (optional)")
	gateP99 := fs.Duration("gate-p99", 0, "fail when the sliceload p99 exceeds this duration (with -sliceload)")
	gateShed := fs.Float64("gate-shed", 0, "fail when the sliceload shed rate exceeds this fraction (with -sliceload)")
	var ratios ratioFlags
	fs.Var(&ratios, "ratio", "`Num:Den:max` — fail when benchmark Num exceeds max × benchmark Den in this run (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *benchPath == "" && *sliceloadPath == "" {
		return fmt.Errorf("one of -bench or -sliceload is required")
	}
	if *update && *baselinePath == "" {
		return fmt.Errorf("-update requires -baseline")
	}
	if (*gateP99 > 0 || *gateShed > 0) && *sliceloadPath == "" {
		return fmt.Errorf("-gate-p99/-gate-shed require -sliceload")
	}

	report := &Report{}
	if *benchPath != "" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		benchmarks, err := ParseBench(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(benchmarks) == 0 {
			return fmt.Errorf("%s: no benchmark result lines found", *benchPath)
		}
		report.Benchmarks = benchmarks
	}
	var err error
	report.Ratios, err = GateRatios(report.Benchmarks, ratios)
	if err != nil {
		return err
	}
	if *sliceloadPath != "" {
		data, err := os.ReadFile(*sliceloadPath)
		if err != nil {
			return err
		}
		var s SliceloadSummary
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("%s: %w", *sliceloadPath, err)
		}
		report.Sliceload = &s
	}

	if *metricsPath != "" {
		data, err := os.ReadFile(*metricsPath)
		if err != nil {
			return err
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("%s: %w", *metricsPath, err)
		}
		report.Phases = PhasesOf(&snap)
	}

	if *outPath != "" {
		if err := writeReport(*outPath, report); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d benchmarks, %d phases)\n", *outPath, len(report.Benchmarks), len(report.Phases))
	}

	// Ratio gates fail before the baseline gate can -update: a run
	// that broke a pinned ratio must not ratify anything.
	violated := 0
	for _, rr := range report.Ratios {
		status := "ok"
		if rr.Ratio > rr.Max {
			status = "RATIO EXCEEDED"
			violated++
		}
		fmt.Fprintf(out, "ratio: %s / %s = %.4f (max %.4f) %s\n", rr.Num, rr.Den, rr.Ratio, rr.Max, status)
	}
	if violated > 0 {
		return fmt.Errorf("%d ratio gate(s) exceeded", violated)
	}

	// The sliceload ceilings also fail before -update for the same
	// reason.
	if report.Sliceload != nil {
		s := report.Sliceload
		fmt.Fprintf(out, "sliceload: %d requests, p99 %s, shed rate %.4f\n",
			s.Requests, time.Duration(s.Latency.P99NS), s.ShedRate)
		if *gateP99 > 0 || *gateShed > 0 {
			violations := GateSliceload(s, *gateP99, *gateShed)
			for _, v := range violations {
				fmt.Fprintln(out, "SLICELOAD GATE", v)
			}
			if len(violations) > 0 {
				return fmt.Errorf("%d sliceload gate(s) exceeded", len(violations))
			}
			fmt.Fprintln(out, "sliceload gate: ok")
		}
	}

	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		switch {
		case err == nil:
			var baseline Report
			if err := json.Unmarshal(data, &baseline); err != nil {
				return fmt.Errorf("%s: %w", *baselinePath, err)
			}
			regressions, compared := Gate(baseline.Benchmarks, report.Benchmarks, *maxRatio)
			fmt.Fprintf(out, "gate: %d benchmarks compared against %s (max ratio %.2fx)\n",
				compared, *baselinePath, *maxRatio)
			if len(regressions) > 0 {
				for _, r := range regressions {
					fmt.Fprintln(out, "REGRESSION", r)
				}
				// A failing run must not ratify its own regression, so
				// -update is ignored on this path.
				return fmt.Errorf("%d benchmark(s) regressed beyond %.2fx", len(regressions), *maxRatio)
			}
			fmt.Fprintln(out, "gate: ok")
		case *update && os.IsNotExist(err):
			// Bootstrap: no baseline yet, the current run becomes it.
			fmt.Fprintf(out, "gate: no baseline at %s, bootstrapping\n", *baselinePath)
		default:
			return err
		}
		if *update {
			if err := writeReport(*baselinePath, report); err != nil {
				return err
			}
			fmt.Fprintf(out, "updated %s (%d benchmarks, %d phases)\n",
				*baselinePath, len(report.Benchmarks), len(report.Phases))
		}
	}
	return nil
}

// writeReport renders a report as indented JSON, the format baselines
// and -out artifacts share.
func writeReport(path string, report *Report) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchLine matches a `go test -bench` result line:
//
//	BenchmarkSliceAll/batch-sliceall-8   100   123456 ns/op   ...
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+([0-9.]+) ns/op`)

// gomaxprocsSuffix is the trailing -N the bench runner appends.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// ParseBench extracts benchmark results from `go test -bench` output,
// normalizing names by dropping the GOMAXPROCS suffix.
func ParseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		out = append(out, Benchmark{
			Name:    gomaxprocsSuffix.ReplaceAllString(m[1], ""),
			Iters:   iters,
			NsPerOp: ns,
		})
	}
	return out, sc.Err()
}

// PhasesOf summarizes the "phase.*" nanosecond histograms of a
// metrics snapshot. Snapshot order is already name-sorted.
func PhasesOf(snap *obs.Snapshot) []Phase {
	var out []Phase
	for _, h := range snap.Histograms {
		if h.Unit != obs.UnitNanoseconds || !strings.HasPrefix(h.Name, "phase.") {
			continue
		}
		p := Phase{Name: h.Name, Count: h.Count, TotalNs: h.Sum}
		if h.Count > 0 {
			p.MeanNs = float64(h.Sum) / float64(h.Count)
		}
		out = append(out, p)
	}
	return out
}

// Gate compares PR benchmarks against the baseline and returns every
// shared benchmark whose median ns/op exceeds baseline*maxRatio, plus
// how many were compared. Benchmarks present on only one side are
// ignored — adding or retiring a benchmark must not break the gate.
func Gate(baseline, pr []Benchmark, maxRatio float64) (regressions []Regression, compared int) {
	base, cur := medianNsPerOp(baseline), medianNsPerOp(pr)
	for _, p := range pr {
		b, ok := base[p.Name]
		c, first := cur[p.Name]
		if !ok || b <= 0 || !first {
			continue
		}
		delete(cur, p.Name) // judge each name once, in input order
		compared++
		if c > b*maxRatio {
			regressions = append(regressions, Regression{Name: p.Name, Base: b, PR: c})
		}
	}
	return regressions, compared
}

// medianNsPerOp maps each benchmark name to the median ns/op of its
// result lines (the mean of the middle two for an even count), so a
// benchmark run with -count n is judged on its middle run, not on
// whichever line came last.
func medianNsPerOp(benchmarks []Benchmark) map[string]float64 {
	runs := make(map[string][]float64, len(benchmarks))
	for _, b := range benchmarks {
		runs[b.Name] = append(runs[b.Name], b.NsPerOp)
	}
	out := make(map[string]float64, len(runs))
	for name, v := range runs {
		sort.Float64s(v)
		m := len(v) / 2
		if len(v)%2 == 0 {
			out[name] = (v[m-1] + v[m]) / 2
		} else {
			out[name] = v[m]
		}
	}
	return out
}
