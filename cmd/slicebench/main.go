// Command slicebench runs the repository's quantitative experiments
// (EXPERIMENTS.md, tables E1, E2, E4 and E6–E9) over generated program
// corpora:
//
//	slicebench -exp precision   # E1: slice sizes per algorithm
//	slicebench -exp soundness   # E2: semantic correctness rates
//	slicebench -exp traversals  # E4: PDT traversal distribution
//	slicebench -exp dynamic     # E6: dynamic vs static slice sizes
//	slicebench -exp cluster     # E9: consistent-hash fleet routing
//	slicebench -exp incr        # E7: incremental re-analysis tiers
//	slicebench -exp sdg         # E8: interprocedural (SDG) slicing
//	slicebench -exp all
//
// Corpus shape is controlled by -seeds and -stmts. E1, E2, E4 and E6
// share one sweep of the two corpora: each program is analyzed once
// and each algorithm's slice of each criterion is computed once, then
// tallied by every selected table. Corpus programs are fanned out over
// a worker pool sized by -parallel (default: the machine's
// GOMAXPROCS); results are reduced in seed order, so two runs print
// identical tables at any parallelism (the E7 and E8 wall-clock
// columns vary with the machine, of course). -json FILE additionally
// writes every computed table as machine-readable JSON. E3's
// per-slice wall clock comes from the Go benchmarks
// (go test -bench BenchmarkScaling).
//
// Observability flags:
//
//	-metrics FILE     write the pipeline metrics snapshot (phase span
//	                  histograms, traversal/jump counters, closure
//	                  cache statistics) as JSON; counter values are
//	                  identical at any -parallel
//	-trace FILE       journal trace events (phase spans, traversal
//	                  passes, jump admissions with rule evidence,
//	                  closure-cache activity) into a 65536-event
//	                  flight recorder and write them as Chrome
//	                  trace_event JSON, loadable in chrome://tracing
//	                  and Perfetto; -json reports then carry the
//	                  flight recorder's written/dropped accounting
//	-cpuprofile FILE  write a runtime/pprof CPU profile of the run
//	-memprofile FILE  write a heap profile at exit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"jumpslice/internal/obs"
)

func main() {
	// Interrupts cancel the run cooperatively: the worker pool stops
	// dispatching seeds and in-flight analyses abort at their next
	// cancellation check, so profiles and deferred cleanup still run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slicebench:", err)
		os.Exit(1)
	}
}

// experiments are the -exp names in -exp all order: the deterministic
// tables first and the wall-clock ones (E7, E8) last, so byte-comparing
// runs only has to strip a suffix.
var experiments = []string{"precision", "soundness", "traversals", "dynamic", "cluster", "incr", "sdg"}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slicebench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: precision|soundness|traversals|dynamic|cluster|incr|sdg|all")
	seeds := fs.Int("seeds", 100, "number of generated programs per corpus")
	stmts := fs.Int("stmts", 30, "approximate statements per program")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for corpus evaluation")
	jsonPath := fs.String("json", "", "also write results as JSON to this file")
	metricsPath := fs.String("metrics", "", "write the pipeline metrics snapshot as JSON to this file")
	tracePath := fs.String("trace", "", "write the run's trace as Chrome trace_event JSON to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	order := experiments
	if *exp != "all" {
		if !slices.Contains(experiments, *exp) {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		order = []string{*exp}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	o := options{ctx: ctx, seeds: *seeds, stmts: *stmts, parallel: *parallel}
	if *metricsPath != "" {
		o.rec = obs.NewRegistry()
		// Runtime vitals ride along in the same registry; Scrub drops
		// every runtime.* instrument before snapshots are compared, so
		// the sampler never perturbs cross-parallelism determinism.
		sampler := obs.StartRuntimeSampler(o.rec, 500*time.Millisecond)
		defer sampler.Stop()
	}
	var fr *obs.FlightRecorder
	if *tracePath != "" {
		fr = obs.NewFlightRecorder(obs.FlightCapacity)
		o.tracer = obs.NewTracer(fr)
	}
	report := &Report{Seeds: o.seeds, Stmts: o.stmts, Parallel: o.parallel}

	sel := map[string]bool{}
	for _, name := range order {
		sel[name] = true
	}
	if sel["precision"] || sel["soundness"] || sel["traversals"] || sel["dynamic"] {
		if err := sweepCorpora(o, sel, report); err != nil {
			return err
		}
	}
	for _, name := range order {
		var err error
		switch name {
		case "precision":
			printPrecision(out, o, report.E1)
		case "soundness":
			printSoundness(out, report.E2)
		case "traversals":
			printTraversals(out, report.E4)
		case "dynamic":
			printDynamic(out, report.E6)
		case "cluster":
			if report.E9, err = clusterTable(o); err == nil {
				printCluster(out, o, report.E9)
			}
		case "incr":
			if report.E7, err = incrTable(o); err == nil {
				printIncr(out, report.E7)
			}
		case "sdg":
			if report.E8, err = sdgTable(o); err == nil {
				printSDG(out, o, report.E8)
			}
		}
		if err != nil {
			return err
		}
	}

	if fr != nil {
		report.Trace = &TraceStats{Capacity: fr.Cap(), Written: fr.Written(), Dropped: fr.Dropped(), Buffered: len(fr.Events())}
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, fr.Events()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote chrome trace to %s (%d events buffered, %d written, %d dropped)\n",
			*tracePath, report.Trace.Buffered, report.Trace.Written, report.Trace.Dropped)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, report); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote JSON results to %s\n", *jsonPath)
	}
	if *metricsPath != "" {
		if err := writeJSON(*metricsPath, o.rec.Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote metrics snapshot to %s\n", *metricsPath)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printPrecision(out io.Writer, o options, rows []PrecisionRow) {
	fmt.Fprintf(out, "\nE1: slice precision (mean over %d programs/corpus, ~%d statements each)\n", o.seeds, o.stmts)
	fmt.Fprintf(out, "%-22s %-13s %12s %12s %10s\n", "algorithm", "corpus", "mean stmts", "mean jumps", "cases")
	for _, r := range rows {
		fmt.Fprintf(out, "%-22s %-13s %12.2f %12.2f %10d\n",
			r.Algorithm, r.Corpus, r.MeanStmts, r.MeanJumps, r.Cases)
	}
}

func printSoundness(out io.Writer, rows []SoundnessRow) {
	fmt.Fprintf(out, "\nE2: semantic soundness under interpretation (%d inputs/case)\n", len(soundnessInputs))
	fmt.Fprintf(out, "%-22s %-13s %10s %10s %9s\n", "algorithm", "corpus", "sound", "cases", "rate")
	for _, r := range rows {
		fmt.Fprintf(out, "%-22s %-13s %10d %10d %8.1f%%\n", r.Algorithm, r.Corpus, r.Sound, r.Cases, r.Rate())
	}
}

func printTraversals(out io.Writer, rows []TraversalRow) {
	fmt.Fprintf(out, "\nE4: Figure 7 postdominator-tree traversal counts (total, incl. final empty pass)\n")
	for _, r := range rows {
		fmt.Fprintf(out, "%-13s:", r.Corpus)
		for _, bin := range r.Counts {
			fmt.Fprintf(out, "  %d traversals ×%d", bin.Traversals, bin.Cases)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "(the paper's Section 4 claims one productive traversal suffices for structured")
	fmt.Fprintln(out, " programs; measured, rare closure-driven cases need a second — see EXPERIMENTS.md)")
}

func printDynamic(out io.Writer, rows []DynamicRow) {
	fmt.Fprintf(out, "\nE6: dynamic slice size as a fraction of the static (Figure 7) slice\n")
	for _, r := range rows {
		fmt.Fprintf(out, "%-13s %-12s dynamic %6.2f vs static %6.2f stmts (%.0f%%), %d cases\n",
			r.Corpus, r.Profile, r.DynamicStmts, r.StaticStmts,
			100*r.DynamicStmts/r.StaticStmts, r.Cases)
	}
}

func printIncr(out io.Writer, rows []IncrRow) {
	fmt.Fprintf(out, "\nE7: incremental re-analysis over replayed edit scripts\n")
	fmt.Fprintf(out, "%-13s %7s %8s %8s %6s %12s %12s %8s\n",
		"corpus", "edits", "patched", "partial", "full", "mean incr", "mean cold", "ratio")
	for _, r := range rows {
		fmt.Fprintf(out, "%-13s %7d %8d %8d %6d %12s %12s %7.1f%%\n",
			r.Corpus, r.Edits, r.Patched, r.Partial, r.Full,
			time.Duration(r.MeanIncrNs).Round(time.Microsecond),
			time.Duration(r.MeanColdNs).Round(time.Microsecond),
			100*r.MeanRatio)
	}
}

func printSDG(out io.Writer, o options, rows []SDGRow) {
	fmt.Fprintf(out, "\nE8: interprocedural (SDG) slicing, %d program sets per procedure count\n", o.seeds)
	fmt.Fprintf(out, "%6s %6s %7s %10s %10s %9s %8s %12s %12s\n",
		"procs", "sets", "cases", "mean stmt", "mean jump", "summary", "rounds", "cold/slice", "warm/slice")
	for _, r := range rows {
		fmt.Fprintf(out, "%6d %6d %7d %10.2f %10.2f %9.1f %8.1f %12s %12s\n",
			r.Procs, r.Sets, r.Cases, r.MeanLines, r.MeanJumps, r.MeanSummary, r.MeanRounds,
			time.Duration(r.MeanColdNs).Round(time.Microsecond),
			time.Duration(r.MeanWarmNs).Round(time.Microsecond))
	}
}

func printCluster(out io.Writer, o options, rows []ClusterRow) {
	fmt.Fprintf(out, "\nE9: consistent-hash fleet routing over %d content-addressed programs\n", o.seeds)
	fmt.Fprintf(out, "%6s %8s %9s %10s %10s %12s\n",
		"nodes", "keys", "balance", "remote", "hot node", "moved/leave")
	for _, r := range rows {
		fmt.Fprintf(out, "%6d %8d %9.3f %9.1f%% %9.1f%% %11.1f%%\n",
			r.Nodes, r.Keys, r.Balance, 100*r.RemoteRate, 100*r.HotShare, 100*r.MovedOnLeave)
	}
	fmt.Fprintln(out, "(remote = requests a random-ingress node must proxy or peer-fill; consistent")
	fmt.Fprintln(out, " hashing keeps moved/leave near 1/n where rehashing would move (n-1)/n)")
}
