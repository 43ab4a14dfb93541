// Command slicetop is a live terminal dashboard for a running sliced
// daemon: top(1) for the slicing plane. It polls GET /metrics and
// GET /debug/slo and renders throughput, latency percentiles, error
// and shed rates, burn rates against the daemon's SLO objectives,
// cache effectiveness, the incremental reuse tier mix, runtime
// health, and the cluster and result tiers — everything an operator
// watches during a rollout, in one screen, with no dependencies beyond
// a terminal.
//
// Usage:
//
//	slicetop [-addr 127.0.0.1:8080] [-interval 2s] [-once]
//
// -once prints a single snapshot and exits (for scripts and CI smoke
// tests); otherwise the screen redraws every -interval until
// interrupted. Each poll is independent, so slicetop can outlive
// daemon restarts: a failed poll renders the error and keeps going.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jumpslice/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slicetop:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slicetop", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "sliced address (host:port)")
	interval := fs.Duration("interval", 2*time.Second, "poll and redraw interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	cur, err := collect(client, base)
	if *once {
		if err != nil {
			return err
		}
		return render(out, cur, nil, base)
	}

	var prev *sample
	for {
		if err != nil {
			fmt.Fprintf(out, "\x1b[H\x1b[2Jslicetop: %s: %v (retrying every %s)\n", base, err, *interval)
		} else {
			fmt.Fprint(out, "\x1b[H\x1b[2J")
			render(out, cur, prev, base)
			prev = cur
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
		cur, err = collect(client, base)
	}
}

// sample is one poll of the daemon: the flat metric series and the
// structured SLO view, stamped with the local receive time so
// successive samples yield live rates.
type sample struct {
	at      time.Time
	metrics map[string]float64
	slo     *obs.SLOSnapshot
}

func collect(client *http.Client, base string) (*sample, error) {
	s := &sample{at: time.Now()}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	s.metrics, err = parseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	resp, err = client.Get(base + "/debug/slo")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/slo: status %d", resp.StatusCode)
	}
	s.slo = &obs.SLOSnapshot{}
	if err := json.NewDecoder(resp.Body).Decode(s.slo); err != nil {
		return nil, fmt.Errorf("decoding /debug/slo: %w", err)
	}
	return s, nil
}

// parseProm reads the Prometheus text exposition format into a flat
// map keyed by the full series name, labels included — exactly the
// bytes before the last space on each sample line. slicetop needs
// lookups, not a data model, so labels stay opaque.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue // a timestamped or exotic line; not ours
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// get sums every series whose name (before any label block) matches.
func (s *sample) get(name string) float64 {
	if v, ok := s.metrics[name]; ok {
		return v
	}
	var sum float64
	for k, v := range s.metrics {
		if strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

func render(w io.Writer, cur, prev *sample, base string) error {
	fmt.Fprintf(w, "slicetop — %s — %s\n", base, cur.at.Format("15:04:05"))

	// Endpoint table: the SLO window view.
	window := time.Duration(cur.slo.WindowNS)
	obj := describeObjectives(cur.slo.Objectives)
	fmt.Fprintf(w, "\nSLO window %s%s\n", window, obj)
	fmt.Fprintf(w, "%-16s %9s %7s %7s %9s %9s %9s %6s %6s\n",
		"ENDPOINT", "REQS", "REQ/S", "ERR%", "P50", "P90", "P99", "EBURN", "LBURN")
	for _, e := range cur.slo.Endpoints {
		rate := 0.0
		if window > 0 {
			rate = float64(e.Requests) / window.Seconds()
		}
		fmt.Fprintf(w, "%-16s %9d %7.2f %6.2f%% %9s %9s %9s %6s %6s\n",
			e.Endpoint, e.Requests, rate, 100*e.ErrorRate,
			shortDur(e.P50NS), shortDur(e.P90NS), shortDur(e.P99NS),
			burn(e.ErrorBurn, cur.slo.Objectives.ErrRate > 0),
			burn(e.LatencyBurn, cur.slo.Objectives.Latency > 0))
	}
	if len(cur.slo.Endpoints) == 0 {
		fmt.Fprintln(w, "(no traffic in window)")
	}

	// Live rate between polls, from the cumulative counters.
	if prev != nil {
		dt := cur.at.Sub(prev.at).Seconds()
		if dt > 0 {
			d := cur.get("jumpslice_http_requests_total") - prev.get("jumpslice_http_requests_total")
			fmt.Fprintf(w, "\nlive: %.1f req/s over the last %.1fs\n", d/dt, dt)
		}
	}

	// Slowest in-window requests: the exemplars, deep-linked.
	type slowest struct {
		endpoint string
		ex       obs.Exemplar
	}
	var slow []slowest
	for _, e := range cur.slo.Endpoints {
		for _, ex := range e.Exemplars {
			slow = append(slow, slowest{e.Endpoint, ex})
		}
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].ex.DurNS > slow[j].ex.DurNS })
	if len(slow) > 3 {
		slow = slow[:3]
	}
	if len(slow) > 0 {
		fmt.Fprintln(w, "\nslowest (→ /debug/requests?id=)")
		for _, s := range slow {
			fmt.Fprintf(w, "  %-16s req=%d %s\n", s.endpoint, s.ex.Request, shortDur(s.ex.DurNS))
		}
	}

	// Cache effectiveness.
	hits := cur.get("jumpslice_cache_hits_total")
	misses := cur.get("jumpslice_cache_misses_total")
	coalesced := cur.get("jumpslice_cache_coalesced_total")
	if total := hits + misses + coalesced; total > 0 {
		fmt.Fprintf(w, "\ncache: %.1f%% reuse (%d hit, %d coalesced, %d miss), %s resident in %d entries\n",
			100*(hits+coalesced)/total, int64(hits), int64(coalesced), int64(misses),
			humanBytes(cur.get("jumpslice_cache_resident_bytes")), int64(cur.get("jumpslice_cache_entries")))
	}

	// Incremental reuse tier mix.
	patched := cur.get("jumpslice_http_incr_patched_total")
	partial := cur.get("jumpslice_http_incr_partial_total")
	full := cur.get("jumpslice_http_incr_full_total")
	if total := patched + partial + full; total > 0 {
		fmt.Fprintf(w, "incremental: %d patched / %d partial / %d full (%.1f%% reused)\n",
			int64(patched), int64(partial), int64(full), 100*(patched+partial)/total)
	}

	// Runtime health (sampled by the daemon on each /metrics scrape).
	if g := cur.get("jumpslice_runtime_goroutines"); g > 0 {
		fmt.Fprintf(w, "\nruntime: %d goroutines on %d procs, heap %s (next GC %s), %d GC cycles",
			int64(g), int64(cur.get("jumpslice_runtime_gomaxprocs")),
			humanBytes(cur.get("jumpslice_runtime_heap_alloc_bytes")),
			humanBytes(cur.get("jumpslice_runtime_next_gc_bytes")),
			int64(cur.get("jumpslice_runtime_gc_cycles")))
		if n := cur.get("jumpslice_runtime_gc_pause_ns_count"); n > 0 {
			fmt.Fprintf(w, ", avg pause %s",
				shortDur(int64(cur.get("jumpslice_runtime_gc_pause_ns_sum")/n)))
		}
		fmt.Fprintln(w)
	}

	// Cluster health (present when the daemon runs with -peers).
	if peers := cur.get("jumpslice_cluster_peers"); peers > 0 {
		fmt.Fprintf(w, "cluster: %d/%d peers up, %d local / %d proxied\n",
			int64(cur.get("jumpslice_cluster_peers_up")), int64(peers),
			int64(cur.get("jumpslice_cluster_local_serves_total")),
			int64(cur.get("jumpslice_cluster_proxied_total")))
	}

	// Result/disk tiers (present once the daemon stored a record, or
	// with -disk-dir).
	if puts := cur.get("jumpslice_result_puts_total"); puts > 0 || cur.get("jumpslice_disk_entries") > 0 {
		fmt.Fprintf(w, "results: %s in %d entries memory",
			humanBytes(cur.get("jumpslice_result_resident_bytes")),
			int64(cur.get("jumpslice_result_entries")))
		if segs := cur.get("jumpslice_disk_segments"); segs > 0 {
			fmt.Fprintf(w, ", disk %s in %d entries over %d segments (%d warm hits)",
				humanBytes(cur.get("jumpslice_disk_resident_bytes")),
				int64(cur.get("jumpslice_disk_entries")), int64(segs),
				int64(cur.get("jumpslice_disk_hits_total")))
		}
		fmt.Fprintln(w)
	}

	// Pipeline totals.
	fmt.Fprintf(w, "\nslices: %d total, %d requests shed\n",
		int64(cur.get("jumpslice_core_slices_total")),
		int64(cur.get("jumpslice_http_shed_total")))
	return nil
}

func describeObjectives(o obs.SLOObjectives) string {
	var parts []string
	if o.Latency > 0 {
		parts = append(parts, fmt.Sprintf("p%d<%s", int(math.Round(o.Quantile*100)), o.Latency))
	}
	if o.ErrRate > 0 {
		parts = append(parts, fmt.Sprintf("err<%.2g%%", 100*o.ErrRate))
	}
	if len(parts) == 0 {
		return " (no objectives; start sliced with -slo)"
	}
	return " — objectives " + strings.Join(parts, ", ")
}

// burn renders a budget-consumption multiplier, or "-" when the
// matching objective is unset.
func burn(v float64, set bool) string {
	if !set {
		return "-"
	}
	return fmt.Sprintf("%.1fx", v)
}

// shortDur renders nanoseconds at millisecond-scale precision.
func shortDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

func humanBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	}
	return fmt.Sprintf("%dB", int64(v))
}
