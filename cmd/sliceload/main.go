// Command sliceload is the cluster load generator: it drives a fleet
// of sliced daemons with a mixed, zipf-skewed workload and reports
// tail latency the way an SLO review wants it — exact percentiles
// over every recorded sample, not histogram-bucket interpolation.
//
//	sliceload -targets host1:7070,host2:7070,host3:7070 \
//	    -duration 30s -clients 64 -mix slice=60,explain=15,session=15,sdg=10
//
// The corpus is -corpus generated programs (plus an interprocedural
// corpus for algo=sdg traffic), identical across runs for a given
// -seed; workers pick programs through a zipf distribution (-zipf)
// so a hot head of the corpus dominates, the way real content-
// addressed traffic does — that skew is what exercises the fleet's
// peer-fill and result tiers. Each program keeps a fixed slicing
// criterion, so repeats are byte-identical requests.
//
// Operations (weighted by -mix):
//
//	slice    POST /slice?var=&line=
//	explain  POST /slice?var=&line=&explain=1
//	sdg      POST /slice?var=&line=&algo=sdg (interprocedural corpus)
//	session  POST /session, PATCH /session/{id} (full-source
//	         replacement re-slice), DELETE /session/{id} — one
//	         operation, three recorded requests
//
// The run stops at -duration or after -n operations, whichever comes
// first. Every HTTP exchange is one sample: latency, status, and the
// responding node's X-Sliced-Node, X-Sliced-Route and X-Cache
// headers. 503 responses count as shed (the daemon's admission gate
// answers 503 "overloaded"), transport failures as errors; both are
// excluded from the latency distribution. The text report prints
// p50/p95/p99/p999/max, the shed rate, and the per-node and per-route
// distributions; -json FILE writes the same report machine-readable,
// the artifact benchgate's -sliceload gate consumes in CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/progen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sliceload:", err)
		os.Exit(1)
	}
}

// Percentiles are exact order statistics of the recorded latency
// samples (nearest-rank over the full sorted set).
type Percentiles struct {
	Samples int64 `json:"samples"`
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	P99NS   int64 `json:"p99_ns"`
	P999NS  int64 `json:"p999_ns"`
	MaxNS   int64 `json:"max_ns"`
}

// Report is the run's result, shared between the text rendering and
// the -json artifact benchgate gates on.
type Report struct {
	Targets    []string         `json:"targets"`
	Clients    int              `json:"clients"`
	DurationNS int64            `json:"duration_ns"`
	Ops        int64            `json:"ops"`
	Requests   int64            `json:"requests"`
	Errors     int64            `json:"errors"`
	Shed       int64            `json:"shed"`
	ShedRate   float64          `json:"shed_rate"`
	RPS        float64          `json:"rps"`
	Latency    Percentiles      `json:"latency"`
	OpCounts   map[string]int64 `json:"op_counts"`
	Nodes      map[string]int64 `json:"nodes"`
	Routes     map[string]int64 `json:"routes"`
	Cache      map[string]int64 `json:"cache"`
}

// sample is one HTTP exchange as a worker recorded it.
type sample struct {
	ns     int64
	op     string
	node   string
	route  string
	cache  string
	status int
	err    bool
}

// opWeight is one parsed -mix entry.
type opWeight struct {
	op     string
	weight int
}

var knownOps = map[string]bool{"slice": true, "explain": true, "session": true, "sdg": true}

// parseMix parses "slice=60,explain=15,session=15,sdg=10" into
// weights. Unknown operations and non-positive weights are errors —
// a silently dropped mix entry would skew every report after it.
func parseMix(s string) ([]opWeight, error) {
	var out []opWeight
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-mix entry %q: want op=weight", part)
		}
		if !knownOps[op] {
			return nil, fmt.Errorf("-mix entry %q: unknown operation (want slice|explain|session|sdg)", part)
		}
		if seen[op] {
			return nil, fmt.Errorf("-mix entry %q: duplicate operation", part)
		}
		seen[op] = true
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-mix entry %q: want a positive integer weight", part)
		}
		out = append(out, opWeight{op: op, weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix %q selects no operations", s)
	}
	return out, nil
}

// pickOp draws one operation from the weighted mix.
func pickOp(rng *rand.Rand, mix []opWeight, total int) string {
	n := rng.Intn(total)
	for _, m := range mix {
		if n < m.weight {
			return m.op
		}
		n -= m.weight
	}
	return mix[len(mix)-1].op
}

// workItem is one corpus program with its fixed slicing criterion.
type workItem struct {
	source string
	query  string // var=&line= preformatted
}

// buildCorpus generates n structured programs. The criterion is the
// program's final variable write, so every request for program i is
// identical across workers and runs — the repeat traffic the fleet's
// caches are supposed to absorb.
func buildCorpus(n, stmts int, seed int64) ([]workItem, error) {
	out := make([]workItem, n)
	for i := range out {
		p := progen.Structured(progen.Config{Seed: seed + int64(i), Stmts: stmts})
		crits := progen.WriteCriteria(p)
		if len(crits) == 0 {
			return nil, fmt.Errorf("corpus program %d has no write criteria", i)
		}
		c := crits[len(crits)-1]
		out[i] = workItem{
			source: lang.Format(p, lang.PrintOptions{}),
			query:  fmt.Sprintf("var=%s&line=%d", c.Var, c.Line),
		}
	}
	return out, nil
}

// buildSDGCorpus generates n multi-procedure program sets for
// algo=sdg traffic, sliced on a write in main.
func buildSDGCorpus(n, stmts int, seed int64) ([]workItem, error) {
	out := make([]workItem, n)
	for i := range out {
		p := progen.MultiProc(progen.Config{Seed: seed + 1_000_000 + int64(i), Stmts: stmts, Procs: 3})
		crits := progen.MainWriteCriteria(p)
		if len(crits) == 0 {
			return nil, fmt.Errorf("sdg corpus program %d has no main write criteria", i)
		}
		c := crits[len(crits)-1]
		out[i] = workItem{
			source: lang.Format(p, lang.PrintOptions{}),
			query:  fmt.Sprintf("var=%s&line=%d&algo=sdg", c.Var, c.Line),
		}
	}
	return out, nil
}

// worker drives one client loop: draw an operation and a zipf-ranked
// program, issue the exchange(s), and record every sample locally
// (merged after the run — no shared state on the hot path).
type worker struct {
	client  *http.Client
	targets []string
	corpus  []workItem
	sdg     []workItem
	mix     []opWeight
	mixTot  int
	rng     *rand.Rand
	zipf    *rand.Zipf // nil = uniform
	ops     int64
	samples []sample
}

// pickItem maps a zipf draw to a corpus index: rank 0 is the hottest
// program.
func (w *worker) pickItem(corpus []workItem) workItem {
	if w.zipf != nil {
		return corpus[int(w.zipf.Uint64())%len(corpus)]
	}
	return corpus[w.rng.Intn(len(corpus))]
}

func (w *worker) target() string {
	return w.targets[w.rng.Intn(len(w.targets))]
}

// exchange issues one HTTP request and records it as a sample.
// Transport errors record err=true with no status.
func (w *worker) exchange(ctx context.Context, op, method, url, contentType, body string) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		w.samples = append(w.samples, sample{op: op, err: true})
		return 0, nil
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		// Run-cancellation aborts mid-flight exchanges; they are not
		// server failures, so they don't score.
		if ctx.Err() == nil {
			w.samples = append(w.samples, sample{op: op, ns: ns, err: true})
		}
		return 0, nil
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	w.samples = append(w.samples, sample{
		op:     op,
		ns:     ns,
		node:   resp.Header.Get("X-Sliced-Node"),
		route:  resp.Header.Get("X-Sliced-Route"),
		cache:  resp.Header.Get("X-Cache"),
		status: resp.StatusCode,
	})
	return resp.StatusCode, data
}

// runOp performs one operation of the mix.
func (w *worker) runOp(ctx context.Context, op string) {
	w.ops++
	switch op {
	case "slice", "explain", "sdg":
		item := w.pickItem(w.corpus)
		query := item.query
		if op == "sdg" {
			item = w.pickItem(w.sdg)
			query = item.query
		} else if op == "explain" {
			query += "&explain=1"
		}
		w.exchange(ctx, op, http.MethodPost, "http://"+w.target()+"/slice?"+query, "text/plain", item.source)
	case "session":
		// One editor round-trip: open, re-slice after a (same-source)
		// replacement edit, close. All three requests land on one node —
		// sessions are node-local state, not content-addressed.
		item := w.pickItem(w.corpus)
		node := w.target()
		status, body := w.exchange(ctx, op, http.MethodPost, "http://"+node+"/session", "text/plain", item.source)
		if status != http.StatusCreated {
			return
		}
		var opened struct {
			Session string `json:"session"`
		}
		if json.Unmarshal(body, &opened) != nil || opened.Session == "" {
			return
		}
		patch, _ := json.Marshal(map[string]string{"source": item.source})
		w.exchange(ctx, op, http.MethodPatch,
			"http://"+node+"/session/"+opened.Session+"?"+item.query, "application/json", string(patch))
		w.exchange(ctx, op, http.MethodDelete, "http://"+node+"/session/"+opened.Session, "", "")
	}
}

// percentiles computes exact nearest-rank order statistics. The input
// is sorted in place.
func percentiles(ns []int64) Percentiles {
	if len(ns) == 0 {
		return Percentiles{}
	}
	slices.Sort(ns)
	return Percentiles{
		Samples: int64(len(ns)),
		P50NS:   obs.NearestRank(ns, 0.50),
		P95NS:   obs.NearestRank(ns, 0.95),
		P99NS:   obs.NearestRank(ns, 0.99),
		P999NS:  obs.NearestRank(ns, 0.999),
		MaxNS:   ns[len(ns)-1],
	}
}

// requestTimeout bounds each HTTP exchange; one that outlives it is
// recorded as a transport error.
const requestTimeout = 5 * time.Second

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sliceload", flag.ContinueOnError)
	targetsFlag := fs.String("targets", "127.0.0.1:7070", "comma-separated host:port list of sliced daemons")
	duration := fs.Duration("duration", 10*time.Second, "run length (0 = until -n operations)")
	n := fs.Int64("n", 0, "stop after this many operations (0 = until -duration)")
	clients := fs.Int("clients", 32, "concurrent client loops")
	mixFlag := fs.String("mix", "slice=60,explain=15,session=15,sdg=10", "operation mix as op=weight pairs")
	corpusN := fs.Int("corpus", 50, "distinct programs in the corpus")
	stmts := fs.Int("stmts", 30, "approximate statements per corpus program")
	zipfS := fs.Float64("zipf", 1.2, "zipf skew over the corpus (s parameter; <= 1 = uniform)")
	seed := fs.Int64("seed", 1, "corpus and traffic seed")
	jsonPath := fs.String("json", "", "also write the report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration <= 0 && *n <= 0 {
		return fmt.Errorf("one of -duration or -n must be positive")
	}
	if *clients <= 0 {
		return fmt.Errorf("-clients must be positive")
	}
	if *corpusN < 1 {
		return fmt.Errorf("-corpus must be at least 1, got %d", *corpusN)
	}
	var targets []string
	for _, t := range strings.Split(*targetsFlag, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("-targets selects no daemons")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	mixTot := 0
	needSDG := false
	for _, m := range mix {
		mixTot += m.weight
		needSDG = needSDG || m.op == "sdg"
	}

	corpus, err := buildCorpus(*corpusN, *stmts, *seed)
	if err != nil {
		return err
	}
	var sdgCorpus []workItem
	if needSDG {
		if sdgCorpus, err = buildSDGCorpus(*corpusN, *stmts, *seed); err != nil {
			return err
		}
	}

	client := &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        *clients * 2,
			MaxIdleConnsPerHost: *clients,
		},
	}
	runCtx := ctx
	var cancel context.CancelFunc
	if *duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	workers := make([]*worker, *clients)
	var opsDone atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		rng := rand.New(rand.NewSource(*seed + 7919*int64(i+1)))
		w := &worker{
			client:  client,
			targets: targets,
			corpus:  corpus,
			sdg:     sdgCorpus,
			mix:     mix,
			mixTot:  mixTot,
			rng:     rng,
		}
		if *zipfS > 1 && *corpusN > 1 {
			w.zipf = rand.NewZipf(rng, *zipfS, 1, uint64(*corpusN-1))
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				if *n > 0 && opsDone.Add(1) > *n {
					return
				}
				w.runOp(runCtx, pickOp(w.rng, w.mix, w.mixTot))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := reduce(workers, targets, *clients, elapsed)
	printReport(out, report)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote JSON report to %s\n", *jsonPath)
	}
	return nil
}

// reduce merges every worker's samples into the run report. Latency
// percentiles cover successful exchanges only: a shed is a fast 503
// by design and a transport error has no meaningful server latency —
// folding either in would flatter or smear the tail.
func reduce(workers []*worker, targets []string, clients int, elapsed time.Duration) *Report {
	r := &Report{
		Targets:    targets,
		Clients:    clients,
		DurationNS: elapsed.Nanoseconds(),
		OpCounts:   map[string]int64{},
		Nodes:      map[string]int64{},
		Routes:     map[string]int64{},
		Cache:      map[string]int64{},
	}
	var lat []int64
	for _, w := range workers {
		r.Ops += w.ops
		for _, s := range w.samples {
			r.Requests++
			r.OpCounts[s.op]++
			switch {
			case s.err:
				r.Errors++
			case s.status == http.StatusServiceUnavailable:
				r.Shed++
			case s.status >= 400:
				r.Errors++
			default:
				lat = append(lat, s.ns)
				if s.node != "" {
					r.Nodes[s.node]++
				}
				if s.route != "" {
					r.Routes[s.route]++
				}
				if s.cache != "" {
					r.Cache[s.cache]++
				}
			}
		}
	}
	if r.Requests > 0 {
		r.ShedRate = float64(r.Shed) / float64(r.Requests)
	}
	if elapsed > 0 {
		r.RPS = float64(r.Requests) / elapsed.Seconds()
	}
	r.Latency = percentiles(lat)
	return r
}

func printReport(out io.Writer, r *Report) {
	fmt.Fprintf(out, "sliceload: %d clients against %s for %s\n",
		r.Clients, strings.Join(r.Targets, ","), time.Duration(r.DurationNS).Round(time.Millisecond))
	fmt.Fprintf(out, "requests  %d (%.1f/s), ops %d, errors %d, shed %d (%.2f%%)\n",
		r.Requests, r.RPS, r.Ops, r.Errors, r.Shed, 100*r.ShedRate)
	fmt.Fprintf(out, "latency   p50 %s  p95 %s  p99 %s  p999 %s  max %s (%d samples)\n",
		time.Duration(r.Latency.P50NS).Round(time.Microsecond),
		time.Duration(r.Latency.P95NS).Round(time.Microsecond),
		time.Duration(r.Latency.P99NS).Round(time.Microsecond),
		time.Duration(r.Latency.P999NS).Round(time.Microsecond),
		time.Duration(r.Latency.MaxNS).Round(time.Microsecond),
		r.Latency.Samples)
	fmt.Fprintf(out, "ops      ")
	for _, op := range sortedKeys(r.OpCounts) {
		fmt.Fprintf(out, "  %s=%d", op, r.OpCounts[op])
	}
	fmt.Fprintln(out)
	if len(r.Nodes) > 0 {
		fmt.Fprintf(out, "nodes    ")
		for _, node := range sortedKeys(r.Nodes) {
			fmt.Fprintf(out, "  %s=%d", node, r.Nodes[node])
		}
		fmt.Fprintln(out)
	}
	if len(r.Routes) > 0 {
		fmt.Fprintf(out, "routes   ")
		for _, rt := range sortedKeys(r.Routes) {
			fmt.Fprintf(out, "  %s=%d", rt, r.Routes[rt])
		}
		fmt.Fprintln(out)
	}
	if len(r.Cache) > 0 {
		fmt.Fprintf(out, "cache    ")
		for _, c := range sortedKeys(r.Cache) {
			fmt.Fprintf(out, "  %s=%d", c, r.Cache[c])
		}
		fmt.Fprintln(out)
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
