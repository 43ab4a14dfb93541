// Command slicequery is the offline analytics half of the sliced
// telemetry plane: it answers questions about requests the daemon
// served in the past, from the durable records the daemon left
// behind — its log, one JSON wide event per request (-log), or a
// post-mortem bundle (-bundle). It needs no running daemon and no
// dependencies beyond the standard library.
//
// Usage:
//
//	slicequery -log FILE [flags] [command]
//	slicequery -bundle DIR [flags] [command]
//
// -log reads the daemon's stderr as captured: the logger's time
// stamps are stripped, lines that hold no wide event (start-up and
// shutdown lines, a recovered panic's stack trace) are skipped, and a
// torn final line, the write a crash cut short, is dropped.
//
// Commands:
//
//	summary    outcome taxonomy, latency percentiles, and a
//	           per-endpoint table over the matching events (default)
//	top        the N slowest matching requests, each with its
//	           per-phase pipeline breakdown
//	list       one line per matching event, oldest first
//	request    full reconstruction of one request by -id; with -raw,
//	           the JSON record verbatim (byte-for-byte what the daemon
//	           wrote, without the log's time stamp)
//
// Filters (combine freely; all must match). They build the same
// obs.Filter that GET /debug/requests applies to the daemon's
// in-memory ring, so both select the same requests:
//
//	-since T / -until T   bound the arrival time; T is RFC3339, a
//	                      unix-nanosecond integer, or a Go duration
//	                      meaning "that long ago" (-since 15m)
//	-endpoint E           the normalized route ("/slice")
//	-status N             the exact response status
//	-outcome O            ok|client_error|error|shed|timeout|canceled|panic
//	-route R              local|proxied — how a clustered
//	                      daemon answered (events from an unclustered
//	                      daemon carry no route and never match)
//	-min-ms N             at least N milliseconds slow
//
// Examples:
//
//	slicequery -log /var/log/sliced.log summary
//	slicequery -log sliced.log -outcome error -since 1h top
//	slicequery -log sliced.log -id 1742 -raw request
//	slicequery -bundle /var/lib/sliced/pm/bundle-...-panic summary
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"jumpslice/internal/obs"
)

func main() {
	// Buffered, so a short report leaves in one write: a reader that
	// stops early (| grep -q) then cannot kill the process with SIGPIPE
	// halfway through.
	out := bufio.NewWriter(os.Stdout)
	code := run(os.Args[1:], out, os.Stderr)
	if err := out.Flush(); err != nil && code == 0 {
		fmt.Fprintln(os.Stderr, "slicequery:", err)
		code = 1
	}
	os.Exit(code)
}

// record is one matching event plus the raw bytes it was parsed from
// (the daemon's exact json.Marshal output).
type record struct {
	ev  obs.WideEvent
	raw []byte
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slicequery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		logFile   = fs.String("log", "", "daemon log (its captured stderr) to query")
		bundleDir = fs.String("bundle", "", "post-mortem bundle directory to query")
		since     = fs.String("since", "", "only events at or after this time (RFC3339, unix ns, or duration ago)")
		until     = fs.String("until", "", "only events at or before this time (RFC3339, unix ns, or duration ago)")
		endpoint  = fs.String("endpoint", "", "only events on this normalized endpoint")
		status    = fs.Int("status", 0, "only events with this exact response status")
		outcome   = fs.String("outcome", "", "only events with this outcome (ok|client_error|error|shed|timeout|canceled|panic)")
		route     = fs.String("route", "", "only events answered via this cluster route (local|proxied)")
		minMS     = fs.Int64("min-ms", 0, "only events at least this many milliseconds slow")
		topN      = fs.Int("n", 10, "row limit for top and list (0 = unlimited for list)")
		reqID     = fs.Uint64("id", 0, "request ID for the request command")
		raw       = fs.Bool("raw", false, "request command: print the stored JSON record verbatim")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: slicequery (-log FILE | -bundle DIR) [flags] [summary|top|list|request]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	cmd := fs.Arg(0)
	if cmd == "" {
		cmd = "summary"
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "slicequery: "+format+"\n", args...)
		return 1
	}
	if (*logFile == "") == (*bundleDir == "") {
		fs.Usage()
		return fail("exactly one of -log or -bundle is required")
	}
	if *outcome != "" {
		if err := obs.CheckOutcome(*outcome); err != nil {
			return fail("-%v", err)
		}
	}
	if *route != "" {
		if err := obs.CheckRoute(*route); err != nil {
			return fail("-%v", err)
		}
	}
	f := obs.Filter{
		Endpoint: *endpoint,
		Status:   *status,
		Outcome:  *outcome,
		Route:    *route,
		MinDurNS: *minMS * int64(time.Millisecond),
		Req:      *reqID,
	}
	var err error
	if f.SinceNS, err = parseTime(*since); err != nil {
		return fail("-since: %v", err)
	}
	if f.UntilNS, err = parseTime(*until); err != nil {
		return fail("-until: %v", err)
	}
	if cmd == "request" && *reqID == 0 {
		return fail("request command needs -id")
	}

	var recs []record
	source := ""
	switch {
	case *logFile != "":
		source = "log " + *logFile
		var n int
		if recs, n, err = readEvents(*logFile, &f); err == nil && n == 0 {
			err = fmt.Errorf("%s holds no wide events; sliced logs one per request on its stderr", *logFile)
		}
	default:
		source = "bundle " + *bundleDir
		recs, _, err = readEvents(filepath.Join(*bundleDir, "requests.jsonl"), &f)
	}
	if err != nil {
		return fail("%v", err)
	}

	switch cmd {
	case "summary":
		printSummary(stdout, source, recs)
	case "top":
		printTop(stdout, recs, *topN)
	case "list":
		printList(stdout, recs, *topN)
	case "request":
		rec := findRequest(recs, *reqID)
		if rec == nil {
			return fail("request %d not found in %s", *reqID, source)
		}
		if *raw {
			fmt.Fprintf(stdout, "%s\n", rec.raw)
			return 0
		}
		printRequest(stdout, rec)
	default:
		fs.Usage()
		return fail("unknown command %q", cmd)
	}
	return 0
}

// parseTime resolves a -since/-until value to unix nanoseconds: empty
// means unbounded, RFC3339 is absolute, a bare integer is unix
// nanoseconds, and a Go duration means that long before now.
func parseTime(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t.UnixNano(), nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return time.Now().Add(-d).UnixNano(), nil
	}
	return 0, fmt.Errorf("want RFC3339 time, unix nanoseconds, or a duration like 15m, got %q", s)
}

// readEvents reads the wide events of a log or a bundle's
// requests.jsonl and returns those that match f, and how many events
// the file holds, matching or not.
func readEvents(path string, f *obs.Filter) (recs []record, n int, err error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer file.Close()
	err = obs.ReadJSONL(file, func(ev *obs.WideEvent, line []byte) error {
		n++
		if f.Match(ev) {
			recs = append(recs, record{ev: *ev, raw: append([]byte(nil), line...)})
		}
		return nil
	})
	if err != nil {
		return nil, n, fmt.Errorf("%s: %w", path, err)
	}
	return recs, n, nil
}

func findRequest(recs []record, id uint64) *record {
	for i := range recs {
		if recs[i].ev.Req == id {
			return &recs[i]
		}
	}
	return nil
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func fmtTime(ns int64) string {
	return time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
}

func printSummary(w io.Writer, source string, recs []record) {
	fmt.Fprintf(w, "source: %s\n", source)
	fmt.Fprintf(w, "events: %d\n", len(recs))
	if len(recs) == 0 {
		return
	}
	minTS, maxTS := recs[0].ev.TimeNS, recs[0].ev.TimeNS
	outcomes := map[string]int{}
	routes := map[string]int{}
	durs := make([]int64, 0, len(recs))
	type epStat struct {
		count, errs int
		durs        []int64
	}
	byEP := map[string]*epStat{}
	for i := range recs {
		ev := &recs[i].ev
		if ev.TimeNS < minTS {
			minTS = ev.TimeNS
		}
		if ev.TimeNS > maxTS {
			maxTS = ev.TimeNS
		}
		outcomes[ev.Outcome]++
		if ev.Route != "" {
			routes[ev.Route]++
		}
		durs = append(durs, ev.DurationNS)
		st := byEP[ev.Endpoint]
		if st == nil {
			st = &epStat{}
			byEP[ev.Endpoint] = st
		}
		st.count++
		if ev.Status >= 500 {
			st.errs++
		}
		st.durs = append(st.durs, ev.DurationNS)
	}
	fmt.Fprintf(w, "range:  %s .. %s\n", fmtTime(minTS), fmtTime(maxTS))

	fmt.Fprintf(w, "outcomes:\n")
	names := make([]string, 0, len(outcomes))
	for name := range outcomes {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if outcomes[names[i]] != outcomes[names[j]] {
			return outcomes[names[i]] > outcomes[names[j]]
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		n := outcomes[name]
		fmt.Fprintf(w, "  %-12s %7d  %5.1f%%\n", name, n, 100*float64(n)/float64(len(recs)))
	}

	// Routes appear only for clustered traffic; an unclustered daemon's
	// events print no routes section at all.
	if len(routes) > 0 {
		fmt.Fprintf(w, "routes:\n")
		rnames := make([]string, 0, len(routes))
		for name := range routes {
			rnames = append(rnames, name)
		}
		sort.Slice(rnames, func(i, j int) bool {
			if routes[rnames[i]] != routes[rnames[j]] {
				return routes[rnames[i]] > routes[rnames[j]]
			}
			return rnames[i] < rnames[j]
		})
		for _, name := range rnames {
			n := routes[name]
			fmt.Fprintf(w, "  %-12s %7d  %5.1f%%\n", name, n, 100*float64(n)/float64(len(recs)))
		}
	}

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	fmt.Fprintf(w, "latency: p50=%s p90=%s p99=%s max=%s\n",
		fmtDur(obs.NearestRank(durs, 0.50)), fmtDur(obs.NearestRank(durs, 0.90)), fmtDur(obs.NearestRank(durs, 0.99)), fmtDur(durs[len(durs)-1]))

	eps := make([]string, 0, len(byEP))
	for ep := range byEP {
		eps = append(eps, ep)
	}
	sort.Slice(eps, func(i, j int) bool {
		if byEP[eps[i]].count != byEP[eps[j]].count {
			return byEP[eps[i]].count > byEP[eps[j]].count
		}
		return eps[i] < eps[j]
	})
	fmt.Fprintf(w, "endpoints:\n")
	fmt.Fprintf(w, "  %-18s %7s %7s %10s %10s\n", "ENDPOINT", "COUNT", "5XX", "P50", "P99")
	for _, ep := range eps {
		st := byEP[ep]
		sort.Slice(st.durs, func(i, j int) bool { return st.durs[i] < st.durs[j] })
		fmt.Fprintf(w, "  %-18s %7d %7d %10s %10s\n",
			ep, st.count, st.errs, fmtDur(obs.NearestRank(st.durs, 0.50)), fmtDur(obs.NearestRank(st.durs, 0.99)))
	}
}

func printTop(w io.Writer, recs []record, n int) {
	if n <= 0 {
		n = 10
	}
	sorted := make([]*record, len(recs))
	for i := range recs {
		sorted[i] = &recs[i]
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].ev.DurationNS != sorted[j].ev.DurationNS {
			return sorted[i].ev.DurationNS > sorted[j].ev.DurationNS
		}
		return sorted[i].ev.Req < sorted[j].ev.Req
	})
	if n < len(sorted) {
		sorted = sorted[:n]
	}
	fmt.Fprintf(w, "top %d slowest of %d events:\n", len(sorted), len(recs))
	for _, rec := range sorted {
		ev := &rec.ev
		fmt.Fprintf(w, "req=%-8d %s %s %s status=%d dur=%s outcome=%s%s\n",
			ev.Req, fmtTime(ev.TimeNS), ev.Method, ev.Path, ev.Status, fmtDur(ev.DurationNS), ev.Outcome, routeSuffix(ev))
		if len(ev.Phases) > 0 {
			parts := make([]string, len(ev.Phases))
			for i, p := range ev.Phases {
				parts[i] = fmt.Sprintf("%s=%s", p.Name, fmtDur(p.NS))
			}
			fmt.Fprintf(w, "    phases: %s\n", strings.Join(parts, " "))
		}
	}
}

func printList(w io.Writer, recs []record, n int) {
	if n > 0 && n < len(recs) {
		recs = recs[len(recs)-n:]
	}
	for i := range recs {
		ev := &recs[i].ev
		fmt.Fprintf(w, "req=%-8d %s %s %s status=%d dur=%s outcome=%s%s\n",
			ev.Req, fmtTime(ev.TimeNS), ev.Method, ev.Path, ev.Status, fmtDur(ev.DurationNS), ev.Outcome, routeSuffix(ev))
	}
}

// routeSuffix renders the cluster attribution of one event, or
// nothing for unclustered traffic — the common case stays one line
// of unchanged width.
func routeSuffix(ev *obs.WideEvent) string {
	if ev.Route == "" {
		return ""
	}
	s := " route=" + ev.Route
	if ev.Peer != "" {
		s += " peer=" + ev.Peer
	}
	return s
}

func printRequest(w io.Writer, rec *record) {
	ev := &rec.ev
	fmt.Fprintf(w, "request %d\n", ev.Req)
	fmt.Fprintf(w, "  time:     %s\n", fmtTime(ev.TimeNS))
	fmt.Fprintf(w, "  request:  %s %s  (endpoint %s)\n", ev.Method, ev.Path, ev.Endpoint)
	fmt.Fprintf(w, "  status:   %d  outcome=%s", ev.Status, ev.Outcome)
	if ev.ErrorCode != "" {
		fmt.Fprintf(w, "  code=%s", ev.ErrorCode)
	}
	fmt.Fprintf(w, "\n")
	fmt.Fprintf(w, "  duration: %s  bytes_out=%d\n", fmtDur(ev.DurationNS), ev.BytesOut)
	if ev.Algo != "" || ev.Stmts > 0 || ev.SliceLines > 0 {
		fmt.Fprintf(w, "  slicing:  algo=%s stmts=%d slice_lines=%d\n", ev.Algo, ev.Stmts, ev.SliceLines)
	}
	if ev.Cache != "" || ev.Incremental != "" {
		fmt.Fprintf(w, "  tiers:    cache=%s incremental=%s\n", ev.Cache, ev.Incremental)
	}
	if ev.Route != "" {
		fmt.Fprintf(w, "  cluster:  route=%s", ev.Route)
		if ev.Peer != "" {
			fmt.Fprintf(w, " peer=%s", ev.Peer)
		}
		fmt.Fprintf(w, "\n")
	}
	if len(ev.Phases) > 0 {
		fmt.Fprintf(w, "  phases:\n")
		var total int64
		for _, p := range ev.Phases {
			total += p.NS
		}
		for _, p := range ev.Phases {
			share := 0.0
			if total > 0 {
				share = 100 * float64(p.NS) / float64(total)
			}
			fmt.Fprintf(w, "    %-14s %12s  %5.1f%%\n", p.Name, fmtDur(p.NS), share)
		}
		fmt.Fprintf(w, "    %-14s %12s\n", "(phase total)", fmtDur(total))
	}
}
