// Command slicebench runs the repository's quantitative experiments
// (EXPERIMENTS.md, tables E1–E4 and E6–E8) over generated program
// corpora:
//
//	slicebench -exp precision   # E1: slice sizes per algorithm
//	slicebench -exp soundness   # E2: semantic correctness rates
//	slicebench -exp timing      # E3: wall-clock scaling
//	slicebench -exp traversals  # E4: PDT traversal distribution
//	slicebench -exp dynamic     # E6: dynamic vs static slice sizes
//	slicebench -exp incr        # E7: incremental re-analysis tiers
//	slicebench -exp sdg         # E8: interprocedural (SDG) slicing
//	slicebench -exp cluster     # E9: consistent-hash fleet routing
//	slicebench -exp all
//
// Corpus shape is controlled by -seeds and -stmts. Corpus programs
// are fanned out over a worker pool sized by -parallel (default: the
// machine's GOMAXPROCS); results are reduced in seed order, so two
// runs print identical tables at any parallelism (timing rows vary
// with the machine, of course). -json FILE additionally writes every
// computed table as machine-readable JSON, letting the performance
// trajectory be tracked across commits.
//
// Observability flags:
//
//	-metrics FILE     write the pipeline metrics snapshot (phase span
//	                  histograms, traversal/jump counters, closure
//	                  cache statistics) as JSON; counter values are
//	                  identical at any -parallel
//	-trace FILE       journal trace events (phase spans, traversal
//	                  passes, jump admissions with rule evidence,
//	                  closure-cache activity) into a flight recorder
//	                  sized by -flight and write them as Chrome
//	                  trace_event JSON, loadable in chrome://tracing
//	                  and Perfetto; -json reports then carry the
//	                  flight recorder's written/dropped accounting
//	-flight N         flight recorder capacity in events (with -trace)
//	-cpuprofile FILE  write a runtime/pprof CPU profile of the run
//	-memprofile FILE  write a heap profile at exit
//
// Every run shares one analysis cache across its experiments: every
// table regenerates the same (seed, stmts) programs, so an -exp all
// run analyzes each program once and later experiments rebind the
// cached analysis instead of re-running the pipeline. The run's
// closing summary and -json reports carry the reuse and byte
// accounting.
//
// The experiment engines live in internal/exps; this command only
// parses flags and renders tables.
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
	"syscall"
	"time"

	"jumpslice/internal/exps"
	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache"
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

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slicebench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: precision|soundness|timing|traversals|dynamic|incr|sdg|cluster|all")
	seeds := fs.Int("seeds", 100, "number of generated programs per corpus")
	stmts := fs.Int("stmts", 30, "approximate statements per program")
	parallel := fs.Int("parallel", exps.DefaultParallel(), "worker pool size for corpus evaluation")
	jsonPath := fs.String("json", "", "also write results as JSON to this file")
	metricsPath := fs.String("metrics", "", "write the pipeline metrics snapshot as JSON to this file")
	tracePath := fs.String("trace", "", "write the run's trace as Chrome trace_event JSON to this file")
	flight := fs.Int("flight", 1<<16, "flight recorder capacity in events (used with -trace)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
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

	// The registry is attached whenever any output wants metrics; the
	// experiments themselves run with no registry otherwise.
	var reg *obs.Registry
	o := exps.Options{Seeds: *seeds, Stmts: *stmts, Parallel: *parallel, Context: ctx}
	if *metricsPath != "" || *jsonPath != "" {
		reg = obs.NewRegistry()
		o.Recorder = reg
		// Runtime vitals ride along in the same registry; Scrub drops
		// every runtime.* instrument before snapshots are compared, so
		// the sampler never perturbs cross-parallelism determinism.
		sampler := obs.StartRuntimeSampler(reg, 500*time.Millisecond)
		defer sampler.Stop()
	}
	var fr *obs.FlightRecorder
	if *tracePath != "" {
		fr = obs.NewFlightRecorder(*flight)
		o.Tracer = obs.NewTracer(fr)
	}
	o.Cache = slicecache.New(slicecache.Options{Recorder: o.Recorder})
	report := &exps.Report{Seeds: o.Seeds, Stmts: o.Stmts, Parallel: o.Parallel}

	steps := map[string]func() error{
		"precision": func() error {
			rows, err := exps.Precision(o)
			if err != nil {
				return err
			}
			report.E1 = rows
			printPrecision(out, o, rows)
			return nil
		},
		"soundness": func() error {
			rows, err := exps.Soundness(o)
			if err != nil {
				return err
			}
			report.E2 = rows
			printSoundness(out, rows)
			return nil
		},
		"timing": func() error {
			rows, err := exps.Timing(o)
			if err != nil {
				return err
			}
			report.E3 = rows
			printTiming(out, rows)
			return nil
		},
		"traversals": func() error {
			rows, err := exps.Traversals(o)
			if err != nil {
				return err
			}
			report.E4 = rows
			printTraversals(out, rows)
			return nil
		},
		"dynamic": func() error {
			rows, err := exps.Dynamic(o)
			if err != nil {
				return err
			}
			report.E6 = rows
			printDynamic(out, rows)
			return nil
		},
		"incr": func() error {
			rows, err := exps.Incr(o)
			if err != nil {
				return err
			}
			report.E7 = rows
			printIncr(out, rows)
			return nil
		},
		"sdg": func() error {
			rows, err := exps.SDG(o)
			if err != nil {
				return err
			}
			report.E8 = rows
			printSDG(out, o, rows)
			return nil
		},
		"cluster": func() error {
			rows, err := exps.Cluster(o)
			if err != nil {
				return err
			}
			report.E9 = rows
			printCluster(out, o, rows)
			return nil
		},
	}

	var order []string
	switch *exp {
	case "all":
		// Wall-clock tables (E3, E7) print after the deterministic ones
		// so byte-comparing runs only has to strip a suffix.
		order = []string{"precision", "soundness", "traversals", "dynamic", "cluster", "timing", "incr", "sdg"}
	default:
		if steps[*exp] == nil {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		order = []string{*exp}
	}
	for _, name := range order {
		if err := steps[name](); err != nil {
			return err
		}
	}
	if reg != nil {
		report.Metrics = reg.Snapshot()
	}
	report.Trace = exps.TraceStatsOf(fr)
	st := o.Cache.Stats()
	report.Cache = &st
	// Printed totals are scheduling-independent: misses count the
	// distinct programs analyzed (singleflight guarantees one build per
	// key) and hits+coalesced count every analysis avoided, however the
	// worker pool interleaved.
	fmt.Fprintf(out, "\ncache: %d analyses reused (%d built, %d bytes resident)\n",
		st.Hits+st.Coalesced, st.Misses, st.Bytes)
	if *tracePath != "" {
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
		data, err := json.MarshalIndent(report.Metrics, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsPath, append(data, '\n'), 0o644); err != nil {
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

func writeJSON(path string, report *exps.Report) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printPrecision(out io.Writer, o exps.Options, rows []exps.PrecisionRow) {
	fmt.Fprintf(out, "\nE1: slice precision (mean over %d programs/corpus, ~%d statements each)\n", o.Seeds, o.Stmts)
	fmt.Fprintf(out, "%-22s %-13s %12s %12s %10s\n", "algorithm", "corpus", "mean stmts", "mean jumps", "cases")
	for _, r := range rows {
		fmt.Fprintf(out, "%-22s %-13s %12.2f %12.2f %10d\n",
			r.Algorithm, r.Corpus, r.MeanStmts, r.MeanJumps, r.Cases)
	}
}

func printSoundness(out io.Writer, rows []exps.SoundnessRow) {
	fmt.Fprintf(out, "\nE2: semantic soundness under interpretation (%d inputs/case)\n", len(exps.SoundnessInputs))
	fmt.Fprintf(out, "%-22s %-13s %10s %10s %9s\n", "algorithm", "corpus", "sound", "cases", "rate")
	for _, r := range rows {
		fmt.Fprintf(out, "%-22s %-13s %10d %10d %8.1f%%\n", r.Algorithm, r.Corpus, r.Sound, r.Cases, r.Rate())
	}
}

func printTraversals(out io.Writer, rows []exps.TraversalRow) {
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

func printDynamic(out io.Writer, rows []exps.DynamicRow) {
	fmt.Fprintf(out, "\nE6: dynamic slice size as a fraction of the static (Figure 7) slice\n")
	for _, r := range rows {
		fmt.Fprintf(out, "%-13s %-12s dynamic %6.2f vs static %6.2f stmts (%.0f%%), %d cases\n",
			r.Corpus, r.Profile, r.DynamicStmts, r.StaticStmts,
			100*r.DynamicStmts/r.StaticStmts, r.Cases)
	}
}

func printIncr(out io.Writer, rows []exps.IncrRow) {
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

func printSDG(out io.Writer, o exps.Options, rows []exps.SDGRow) {
	fmt.Fprintf(out, "\nE8: interprocedural (SDG) slicing, %d program sets per procedure count\n", o.Seeds)
	fmt.Fprintf(out, "%6s %6s %7s %10s %10s %9s %8s %12s %12s\n",
		"procs", "sets", "cases", "mean stmt", "mean jump", "summary", "rounds", "cold/slice", "warm/slice")
	for _, r := range rows {
		fmt.Fprintf(out, "%6d %6d %7d %10.2f %10.2f %9.1f %8.1f %12s %12s\n",
			r.Procs, r.Sets, r.Cases, r.MeanLines, r.MeanJumps, r.MeanSummary, r.MeanRounds,
			time.Duration(r.MeanColdNs).Round(time.Microsecond),
			time.Duration(r.MeanWarmNs).Round(time.Microsecond))
	}
}

func printCluster(out io.Writer, o exps.Options, rows []exps.ClusterRow) {
	fmt.Fprintf(out, "\nE9: consistent-hash fleet routing over %d content-addressed programs\n", o.Seeds)
	fmt.Fprintf(out, "%6s %8s %9s %10s %10s %12s\n",
		"nodes", "keys", "balance", "remote", "hot node", "moved/leave")
	for _, r := range rows {
		fmt.Fprintf(out, "%6d %8d %9.3f %9.1f%% %9.1f%% %11.1f%%\n",
			r.Nodes, r.Keys, r.Balance, 100*r.RemoteRate, 100*r.HotShare, 100*r.MovedOnLeave)
	}
	fmt.Fprintln(out, "(remote = requests a random-ingress node must proxy or peer-fill; consistent")
	fmt.Fprintln(out, " hashing keeps moved/leave near 1/n where rehashing would move (n-1)/n)")
}

func printTiming(out io.Writer, rows []exps.TimingRow) {
	fmt.Fprintf(out, "\nE3: wall-clock per slice (analysis excluded), mean of repeated runs\n")
	fmt.Fprintf(out, "%-22s", "algorithm")
	for _, n := range exps.TimingSizes {
		fmt.Fprintf(out, " %12s", fmt.Sprintf("~%d stmts", n))
	}
	fmt.Fprintln(out)
	for _, r := range rows {
		fmt.Fprintf(out, "%-22s", r.Algorithm)
		for _, d := range r.Cells {
			if d < 0 {
				fmt.Fprintf(out, " %12s", "n/a")
				continue
			}
			fmt.Fprintf(out, " %12s", d)
		}
		fmt.Fprintln(out)
	}
}
