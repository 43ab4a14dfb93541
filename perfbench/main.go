// Command perfbench is the repository benchmark. It runs one of three
// workloads against the slicer and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 they are the per-layer ledger.
//
// Workloads (each replays a fixed, seeded operation sequence whose
// length is ops-per-second × -seconds, so every run of one seed sends
// the same traffic):
//
//   - cold-pipeline: in-process library use; every operation parses a
//     never-seen generated program, analyzes it, slices every write
//     criterion with SliceAll and formats every slice.
//   - serve-hot: one closed-loop client sends a zipf-skewed
//     slice/explain/sdg mix over a warmed corpus to one sliced daemon.
//   - edit-session: one client drives editor sessions on one sliced
//     daemon with one-line PATCH edits of fixed tier proportions.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload cold-pipeline --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"slices"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"jumpslice/internal/paper"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sliced   string // path of the sliced binary
	workdir  string // directory temporary run directories are made in
	self     string // path of this benchmark's binary, run by set-up probes
}

// ops returns the fixed operation count of a run.
func (c *config) ops(perSecond int) int { return perSecond * c.seconds }

// workloads maps workload names to their runners.
var workloads = map[string]func(cfg *config, sup *supervisor) (*outcome, error){
	"cold-pipeline": runCold,
	"serve-hot":     runServeHot,
	"edit-session":  runEditSession,
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-pipeline, serve-hot or edit-session")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length; sets the fixed operation count")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the timed run")
	flag.StringVar(&cfg.sliced, "sliced", "", "path of the sliced binary")
	flag.StringVar(&cfg.workdir, "workdir", ".", "directory for temporary run directories")
	probe := flag.String("probe", "", "run the pipeline once on this program file and exit (the cold-pipeline set-up probe)")
	flag.Parse()
	if *probe != "" {
		if err := runProbe(*probe); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = *trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) || cfg.sliced == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload {cold-pipeline|serve-hot|edit-session}, -seconds >= 1, -trace 0|1 and -sliced")
		os.Exit(2)
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.self = self
	sup := newSupervisor(cfg.workdir)
	// Stop every child on SIGINT/SIGTERM before exiting; the daemons
	// run in their own process groups and would not see the signal.
	var interrupted atomic.Int32
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		interrupted.Store(int32(sig.(syscall.Signal)))
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping children\n", sig)
		if err := sup.shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(128 + int(sig.(syscall.Signal)))
	}()

	res, err := runGuarded(cfg, sup)
	if serr := sup.shutdown(); serr != nil && err == nil {
		err = serr
	}
	if sig := interrupted.Load(); sig != 0 {
		os.Exit(128 + int(sig))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, cfg, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// runGuarded runs the workload and turns a panic into an error, so the
// caller still stops every child process.
func runGuarded(cfg *config, sup *supervisor) (res *result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return run(cfg, sup)
}

// run executes one workload run and assembles its result line.
func run(cfg *config, sup *supervisor) (*result, error) {
	out, err := workloads[cfg.workload](cfg, sup)
	if err != nil {
		return nil, err
	}
	if out.attempted == 0 {
		return nil, errors.New("no operations attempted")
	}
	res := &result{
		Correct:   out.oracle.ok(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times: %v\n", out.setup)
	o := out.oracle
	fmt.Fprintf(os.Stderr, "perfbench: oracle: %d/%d paper figures, negative control rejected %v, %d slices run by the interpreter (%d inputs inconclusive), %d responses compared, %d failures\n",
		o.figures, len(paper.All()), o.negativeRejected, o.checked, o.inconclusive, o.compared, o.failed)
	for _, line := range o.failures {
		fmt.Fprintln(os.Stderr, "oracle:", line)
	}
	if cfg.trace {
		vals, err := out.ledger.values()
		if err != nil {
			return nil, err
		}
		for _, d := range perLayerMetrics {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return res, nil
	}
	vals := out.endToEnd()
	for _, d := range endToEndMetrics {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return res, nil
}

// printResult writes a readable table, then the result line last.
func printResult(f *os.File, cfg *config, res *result) {
	mode := "timed"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(f, "workload %s, seed %d, %s run: %d attempted, %d failed, error_rate %.4f, oracle %v\n",
		cfg.workload, cfg.seed, mode, res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted), res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(f, string(line))
}

// outcome is what a workload measured.
type outcome struct {
	setup     []time.Duration // one per set-up repetition
	lat       []time.Duration // per timed operation
	align     int             // chunk boundaries of the pass are multiples of align (0: 1)
	wall      time.Duration   // timed phase
	cpu       time.Duration   // CPU time of the system under test in the timed phase
	peakRSSKB int64
	attempted int
	failed    int
	oracle    *oracle
	ledger    *ledger // traced runs only
}

// endToEnd derives the end-to-end metric values of a timed run.
//
// p99_ms is the median over the pass's chunks of each chunk's p99. A
// stretch of seconds in which the host slows the machine fills the
// run-wide top 1% by itself and moved the run-wide p99 by half between
// runs of one seed; it moves the p99 of the chunks it falls in, and
// the median over the chunks only once it covers half of them.
func (o *outcome) endToEnd() map[string]float64 {
	chunkP99 := make([]time.Duration, chunks)
	for c := range chunkP99 {
		lo, hi := chunkBounds(len(o.lat), max(o.align, 1), c)
		chunkP99[c] = percentiles(slices.Clone(o.lat[lo:hi]), 0.99)[0]
	}
	p50 := percentiles(o.lat, 0.50)[0]
	return map[string]float64{
		"setup_s":       median(o.setup).Seconds(),
		"ops_per_s":     float64(o.attempted-o.failed) / o.wall.Seconds(),
		"p50_ms":        ms(p50),
		"p99_ms":        ms(median(chunkP99)),
		"cpu_ms_per_op": ms(o.cpu) / float64(o.attempted),
		"peak_rss_mb":   float64(o.peakRSSKB) / 1024,
		"success_pct":   100 * float64(o.attempted-o.failed) / float64(o.attempted),
	}
}

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the slicer sees. error_rate is
// carried by the result line's failed/attempted counts (and printed in
// the table); success_pct is its never-zero complement.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_pct", "%"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentiles returns nearest-rank order statistics of ds (sorted in
// place).
func percentiles(ds []time.Duration, qs ...float64) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	out := make([]time.Duration, len(qs))
	if len(ds) == 0 {
		return out
	}
	for i, q := range qs {
		r := int(q*float64(len(ds))+0.5) - 1
		if r < 0 {
			r = 0
		}
		if r >= len(ds) {
			r = len(ds) - 1
		}
		out[i] = ds[r]
	}
	return out
}

// median returns the median of ds without reordering it.
func median(ds []time.Duration) time.Duration {
	c := append([]time.Duration(nil), ds...)
	return percentiles(c, 0.5)[0]
}
