// Command sliced is an observable slicing daemon: it serves the
// repository's slicing algorithms over HTTP, with every request
// summarized into one wide event and aggregated into the pipeline
// metrics registry.
//
// Endpoints:
//
//	POST /slice         slice a program; the body is either raw
//	                    program source with ?var= &line= (&algo=)
//	                    query parameters, or a JSON object
//	                    {"source":..,"var":..,"line":..,"algo":..}.
//	                    ?explain=1 adds per-line provenance and the
//	                    annotated listing to the response.
//	                    Responses carry a strong ETag derived from the
//	                    request (the slicer is deterministic), honour
//	                    If-None-Match with 304, and say in X-Cache what
//	                    answered: result (the result tier replayed an
//	                    identical earlier request's response), disk
//	                    (the same, from -disk-dir), or the analysis
//	                    cache's verdict on a computed response: hit,
//	                    miss, or coalesced (joined another request's
//	                    in-flight analysis). Every algorithm, algo=sdg
//	                    included, goes through the one cached analysis
//	                    of the program; only sdg accepts procedure
//	                    declarations.
//	POST /session       open an incremental editor session: the body
//	                    is the program source (raw, or JSON
//	                    {"source":..}); the response carries the
//	                    session ID and the analysis stays warm in the
//	                    cache (budget-accounted, evictable).
//	PATCH /session/{id} apply one edit and re-slice: ?var= &line=
//	                    (&algo= &explain=) pick the criterion, any
//	                    algorithm /slice serves, sdg included; the
//	                    body is JSON {"edit":{"op":"replace",
//	                    "line":N,"text":".."}} for a one-line edit,
//	                    or a full source replacement. X-Incremental
//	                    reports the reuse tier (patched, partial,
//	                    full; always full for programs with
//	                    procedures), X-Cache whether the session's
//	                    analysis was still cached (hit) or had been
//	                    evicted (miss), and the response body includes
//	                    the lines added/removed against the pre-edit
//	                    slice. A failed edit leaves the session
//	                    unchanged.
//	DELETE /session/{id} close the session, releasing its cache
//	                    residency.
//	GET  /metrics       Prometheus text exposition (v0.0.4) of the
//	                    metrics registry: slice/traversal/jump
//	                    counters and phase histograms.
//	GET  /debug/cache   the analysis cache's live counters and byte
//	                    ledger as JSON.
//	GET  /debug/requests the wide-event ring: one JSON record for each
//	                    of the last 1024 requests with status,
//	                    duration, phase timings, cache/incremental
//	                    tiers, and outcome (?id= ?status= ?min_ms=
//	                    ?endpoint= ?outcome= ?route= ?n= filter it;
//	                    ?id=N is one request's phases, in completion
//	                    order).
//	GET  /debug/slo     per-endpoint SLO view over a one-minute
//	                    sliding window (10 rotating buckets):
//	                    percentiles, error/shed rates, burn rates
//	                    against the -slo objectives, and per-bucket
//	                    slowest-request exemplars.
//	GET  /debug/build   the binary's build provenance (go version,
//	                    module path, VCS revision).
//	GET  /debug/cluster the cluster's membership and tier view: ring
//	                    nodes, per-peer health, and result/disk tier
//	                    occupancy; "enabled" is true when -peers or
//	                    -disk-dir is set.
//	GET  /healthz       liveness probe; reports the build revision.
//
// The access log emits one line per request on stderr: the request's
// wide event as JSON, the same one /debug/requests serves. -slo sets
// objectives (e.g. p99=50ms,err=1%), and -pprof exposes net/http/pprof
// under /debug/pprof/. Runtime vitals (the jumpslice_runtime_* series)
// are read on each /metrics scrape.
//
// # Durability
//
// The JSON access log is the durable request record: whatever
// captures stderr keeps it, and cmd/slicequery -log queries it
// offline, after a restart or a crash.
//
// -postmortem-dir enables post-mortem bundles: on SIGUSR1, on the
// first recovered panic, and on a fatal exit the daemon writes one
// self-contained directory (recent wide events, SLO snapshot,
// goroutine dump, build info) an operator can attach to an incident.
// See postmortem.go for the bundle schema.
//
// # Clustering
//
// -peers turns the daemon into one node of a static fleet (the flag
// is the full membership, identical on every node; -self names this
// node's entry, defaulting to -addr). Requests are routed by the
// program's SHA-256 content address over a consistent-hash ring (128
// virtual nodes per node): a request landing on a non-owner is
// proxied to the owner, which answers from its result tier or
// computes. X-Sliced-Node, X-Sliced-Route (local, proxied) and
// X-Sliced-Peer on every response say who served it and how; health
// probes (-probe-interval) gate hops, never ownership, so a dead
// peer degrades to local computation. Every daemon, clustered or not,
// keeps an in-memory result tier (-result-bytes budget) that answers a
// repeated request as X-Cache: result; -disk-dir backs it with a disk
// tier (-disk-bytes budget) so a restarted node serves its prior
// results as X-Cache: disk without recomputing. See internal/cluster
// and internal/slicecache/disk.
//
// Every request gets a monotonically increasing ID, echoed in the
// X-Request-ID response header and stamped on its wide event, so a
// /slice response can be correlated with /debug/requests?id=. The
// daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
//
// # Operational limits
//
// The serving path is hardened against slow, huge, and hostile
// requests; every limit is a flag, and a limit that admits nothing
// (-max-body, -max-stmts or -max-inflight below 1) is refused at
// startup with exit status 2:
//
//	-timeout D       per-request analysis deadline (default 10s).
//	                 The deadline — and a client disconnect — cancels
//	                 the slicing pipeline cooperatively mid-fixpoint
//	                 (see internal/core); timeouts answer 503,
//	                 disconnects are logged as 499. In a cluster it
//	                 bounds the proxy hop too; 0 means no deadline.
//	-max-body N      request body byte limit (default 1 MiB); larger
//	                 bodies answer 413.
//	-max-stmts N     parsed statement-count limit (default 20000);
//	                 larger programs answer 413.
//	-max-inflight N  concurrent /slice admission slots (default
//	                 2×GOMAXPROCS); excess load is shed with 503 and
//	                 a Retry-After header instead of queueing.
//	-cache-bytes N   analysis cache budget (default 64 MiB). Completed
//	                 analyses are cached by content hash of the program
//	                 source, so repeated and concurrent requests for
//	                 the same program skip the whole pipeline; N
//	                 concurrent identical requests run one analysis.
//	-result-bytes N  result tier budget (default 32 MiB): finished
//	                 responses, replayed for identical requests. With
//	                 -cache-bytes it bounds the daemon's caches.
//
// A panic while serving one request is recovered, logged with its
// stack, and answered as a 500 naming the request ID; the daemon
// keeps serving.
//
// All errors — including 404/405 from routing and everything under
// /debug/ — use one JSON envelope distinguishing client from server
// faults:
//
//	{"error":{"code":"...","message":"...","status":NNN,"request_id":N}}
//
// Usage:
//
//	sliced [-addr 127.0.0.1:8080] [-timeout 10s] [-max-body 1048576]
//	       [-max-stmts 20000] [-max-inflight 16]
//
//	curl -sS --data-binary @testdata/fig5-a.mc \
//	    'http://127.0.0.1:8080/slice?var=positives&line=14'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jumpslice/internal/baselines"
	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache"
	"jumpslice/internal/slicecache/disk"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sliced:", err)
		os.Exit(2)
	}
	if err := serve(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sliced:", err)
		os.Exit(1)
	}
}

// newFlagSet binds every flag to its field of cfg, whose values are
// the defaults the usage text shows.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("sliced", flag.ContinueOnError)
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "per-request analysis deadline (0 disables)")
	fs.Int64Var(&cfg.MaxBody, "max-body", cfg.MaxBody, "request body limit in bytes")
	fs.IntVar(&cfg.MaxStmts, "max-stmts", cfg.MaxStmts, "parsed statement count limit per program")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", cfg.MaxInflight, "concurrent /slice requests before shedding load")
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", cfg.CacheBytes, "analysis cache budget in bytes")
	fs.Func("slo", "SLO `objectives`, e.g. p99=50ms,err=1% (enables burn rates)", func(v string) (err error) {
		cfg.Objectives, err = obs.ParseObjectives(v)
		return err
	})
	fs.BoolVar(&cfg.Pprof, "pprof", cfg.Pprof, "serve net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.PostmortemDir, "postmortem-dir", cfg.PostmortemDir, "post-mortem bundle directory for SIGUSR1/panic/fatal-exit snapshots (empty disables)")
	fs.Func("peers", "comma-separated `host:port` list of every node in the fleet, self included (empty disables clustering)", func(v string) error {
		cfg.PeerList = nil
		for _, p := range strings.Split(v, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.PeerList = append(cfg.PeerList, p)
			}
		}
		return nil
	})
	fs.StringVar(&cfg.Self, "self", cfg.Self, "this node's address as it appears in -peers (defaults to -addr)")
	fs.DurationVar(&cfg.ProbeInterval, "probe-interval", cfg.ProbeInterval, "peer health probe cadence")
	fs.StringVar(&cfg.DiskDir, "disk-dir", cfg.DiskDir, "disk-backed result tier directory for warm restarts (empty disables)")
	fs.Int64Var(&cfg.DiskBytes, "disk-bytes", cfg.DiskBytes, "disk result tier budget in bytes (oldest segments reclaimed)")
	fs.Int64Var(&cfg.ResultBytes, "result-bytes", cfg.ResultBytes, "in-memory result record cache budget in bytes")
	return fs
}

// parseFlags parses the command line over defaultConfig. A limit that
// admits nothing is an error, not silently replaced by its default.
func parseFlags(args []string) (config, error) {
	cfg := defaultConfig()
	if err := newFlagSet(&cfg).Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case cfg.MaxBody <= 0:
		return cfg, fmt.Errorf("-max-body: %d admits no request body", cfg.MaxBody)
	case cfg.MaxStmts <= 0:
		return cfg, fmt.Errorf("-max-stmts: %d admits no program", cfg.MaxStmts)
	case cfg.MaxInflight <= 0:
		return cfg, fmt.Errorf("-max-inflight: %d admits no request", cfg.MaxInflight)
	}
	if len(cfg.PeerList) > 0 && cfg.Self == "" {
		cfg.Self = cfg.Addr
	}
	return cfg, nil
}

// Fixed sizes of the in-memory telemetry: /debug/requests holds the
// last requestRing wide events, and /debug/slo a sloWindow split into
// 10 buckets.
const (
	requestRing = 1024
	sloWindow   = time.Minute
)

// config carries the daemon's operational limits; defaultConfig holds
// each one's default.
type config struct {
	Addr        string        // listen address
	Timeout     time.Duration // per-request analysis deadline; <=0 disables
	MaxBody     int64         // request body byte limit
	MaxStmts    int           // parsed statement-count limit
	MaxInflight int           // /slice admission slots before shedding
	CacheBytes  int64         // analysis cache budget; <=0 means the default
	// Objectives are the parsed -slo targets.
	Objectives obs.SLOObjectives
	// Pprof serves net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// PostmortemDir enables post-mortem bundles (SIGUSR1, first
	// recovered panic, fatal exit) when non-empty.
	PostmortemDir string
	// Failpoints enables the X-Sliced-Fail request header, which
	// injects failures into the serving path (value "panic" panics
	// inside the handler, "block" parks the request until released).
	// It exists for the resilience tests and is never enabled by a flag;
	// production requests carrying the header are unaffected.
	Failpoints bool
	// PeerList is the fleet's full static membership (host:port, self
	// included) from -peers; empty disables clustering. Self is this
	// node's own address as it appears in the list (defaults to
	// -addr).
	PeerList []string
	Self     string
	// ProbeInterval is the peer health prober's cadence.
	ProbeInterval time.Duration
	// DiskDir enables the disk-backed result tier (warm restarts) when
	// non-empty; DiskBytes is its budget, ResultBytes the in-memory
	// result tier's budget.
	DiskDir     string
	DiskBytes   int64
	ResultBytes int64
}

func defaultConfig() config {
	return config{
		Addr:          "127.0.0.1:8080",
		Timeout:       10 * time.Second,
		MaxBody:       1 << 20,
		MaxStmts:      20000,
		MaxInflight:   2 * runtime.GOMAXPROCS(0),
		CacheBytes:    slicecache.DefaultMaxBytes,
		ProbeInterval: time.Second,
		DiskBytes:     disk.DefaultMaxBytes,
		ResultBytes:   32 << 20,
	}
}

// serve runs the daemon until SIGINT/SIGTERM, then drains in-flight
// requests and returns nil on a clean shutdown.
func serve(cfg config) error {
	s := newServer(cfg, os.Stderr)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	return serveOn(ln, s)
}

// serveOn is serve minus listener setup, split out so tests can bind
// port 0 themselves and drive the signal path.
func serveOn(ln net.Listener, s *server) error {
	srv := &http.Server{Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := s.openCluster(); err != nil {
		return err
	}
	// Stop the prober and seal the disk tier's active segment so the
	// next boot warm-restarts from a clean record boundary.
	defer s.closeCluster()

	// SIGUSR1 asks for a post-mortem bundle without stopping the
	// daemon: the operator's "write down what you know" signal.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)
	go func() {
		for range usr1 {
			dir, err := s.writePostmortem("sigusr1")
			if err != nil {
				s.logger.Printf("postmortem: %v", err)
				continue
			}
			s.logger.Printf("postmortem bundle (sigusr1) written to %s", dir)
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.logger.Printf("sliced listening on http://%s (timeout %s, max body %d, max stmts %d, max inflight %d)",
		ln.Addr(), s.cfg.Timeout, s.cfg.MaxBody, s.cfg.MaxStmts, s.cfg.MaxInflight)

	select {
	case err := <-errc:
		return s.postmortemOnFatal(err)
	case <-ctx.Done():
	}
	s.logger.Printf("sliced shutting down (%d requests served, %d shed)",
		s.reqID.Load(), s.shed.Load())
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return s.postmortemOnFatal(err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return s.postmortemOnFatal(err)
	}
	return nil
}

// server holds the daemon's shared observability state. All fields
// are safe for concurrent use: the registry's counters/histograms are
// atomic, each request's SpanLog is its own, and the admission gate
// is a buffered channel.
type server struct {
	cfg    config
	reg    *obs.Registry
	reqID  atomic.Int64
	shed   atomic.Int64 // requests answered 503 by the admission gate
	logger *log.Logger
	mux    *http.ServeMux
	sem    chan struct{} // admission slots; acquired for the whole /slice handler
	// cache memoizes completed analyses by content hash of the program
	// source. Cached analyses are detached — each
	// request binds its own view with Rebind.
	cache *slicecache.Cache
	// sessions maps open editor-session IDs to their source text; each
	// session's analysis lives in cache under slicecache.SessionKey, so
	// sessions and anonymous traffic share one byte budget.
	sessID   atomic.Int64
	smu      sync.Mutex
	sessions map[string]*session
	// requests is the bounded wide-event ring behind /debug/requests;
	// slo the per-endpoint sliding-window tracker behind /debug/slo
	// and the jumpslice_http_* metrics; build is the binary's
	// provenance, resolved once. pmPanic rate-limits panic-triggered
	// post-mortem bundles to one per process.
	requests *obs.RequestLog
	slo      *obs.SLOTracker
	build    buildDetails
	pmPanic  atomic.Bool
	// unblock releases requests parked by the "block" failpoint; the
	// resilience tests close it to let in-flight work finish.
	unblock chan struct{}
	// cluster is the routing fabric (nil without -peers); results the
	// two-tier serialized result cache, which newServer builds for every
	// daemon; disk the persistent tier under it (nil without -disk-dir).
	// openCluster assigns cluster and disk, and rebuilds results over
	// disk, before any request is served.
	cluster *clusterState
	results *slicecache.ResultCache
	disk    *disk.Store
}

func newServer(cfg config, logw io.Writer) *server {
	s := &server{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		logger:   log.New(logw, "", log.LstdFlags|log.Lmicroseconds),
		sem:      make(chan struct{}, cfg.MaxInflight),
		unblock:  make(chan struct{}),
		sessions: map[string]*session{},
	}
	s.requests = obs.NewRequestLog(requestRing)
	s.slo = obs.NewSLOTracker(sloWindow, 10, cfg.Objectives)
	s.build = readBuildDetails()
	s.cache = slicecache.New(slicecache.Options{
		MaxBytes: cfg.CacheBytes,
		Recorder: s.reg,
	})
	s.results = s.newResults()
	mux := http.NewServeMux()
	mux.HandleFunc("/slice", s.methods(map[string]http.HandlerFunc{
		http.MethodPost: s.gated(s.handleSlice),
	}))
	mux.HandleFunc("/session", s.methods(map[string]http.HandlerFunc{
		http.MethodPost: s.gated(s.handleSessionOpen),
	}))
	mux.HandleFunc("/session/", s.methods(map[string]http.HandlerFunc{
		http.MethodPatch:  s.gated(s.handleSessionPatch),
		http.MethodDelete: s.handleSessionDelete,
	}))
	mux.HandleFunc("/metrics", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleMetrics,
	}))
	mux.HandleFunc("/debug/cache", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleCache,
	}))
	mux.HandleFunc("/debug/requests", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleRequests,
	}))
	mux.HandleFunc("/debug/slo", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleSLO,
	}))
	mux.HandleFunc("/debug/build", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleBuild,
	}))
	mux.HandleFunc("/debug/cluster", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleClusterDebug,
	}))
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	mux.HandleFunc("/healthz", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleHealthz,
	}))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.fail(w, r, http.StatusNotFound, "not_found", "no such endpoint %s", r.URL.Path)
	})
	s.mux = mux
	return s
}

// Handler returns the daemon's full handler chain: the instrument
// middleware (request-ID assignment, wide-event assembly, SLO
// accounting, access logging), then panic recovery, then the route
// mux. Recovery sits inside the instrumentation so a recovered panic
// still produces a wide event with its request ID and a 500 response.
func (s *server) Handler() http.Handler { return s.instrument(s.recoverPanics(s.mux)) }

type ctxKey int

const reqIDKey ctxKey = 0

// requestID returns the request's assigned ID (0 if the middleware
// did not run, which only happens in tests hitting handlers direct).
func requestID(r *http.Request) uint64 {
	id, _ := r.Context().Value(reqIDKey).(uint64)
	return id
}

// statusWriter captures the response status and body byte count for
// the wide event, and whether a header was already written, so the
// panic recovery knows if a 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// recoverPanics isolates a panic to the request that caused it: the
// panic is logged with its stack, the client gets a 500 naming the
// request ID (when no response bytes have been sent yet), and the
// daemon keeps serving. http.ErrAbortHandler is re-raised — it is
// net/http's own "abort this response" protocol, not a failure.
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			id := requestID(r)
			s.logger.Printf("req=%d panic: %v\n%s", id, p, debug.Stack())
			reqInfoFrom(r).setOutcome(obs.OutcomePanic)
			s.postmortemOnPanic()
			s.fail(w, r, http.StatusInternalServerError, "internal",
				"internal error serving request %d; see server log", id)
		}()
		next.ServeHTTP(w, r)
	})
}

// methods dispatches on the request method, answering anything else
// with a structured 405 and an Allow header. The mux's own method
// patterns are not used because their 405s are plain text.
func (s *server) methods(handlers map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(handlers))
	for m := range handlers {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		if h, ok := handlers[r.Method]; ok {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		s.fail(w, r, http.StatusMethodNotAllowed, "method_not_allowed",
			"method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow)
	}
}

// gated admits a request if an admission slot is free and sheds it
// with 503 + Retry-After otherwise. Shedding immediately instead of
// queueing keeps overload from stacking timed-out work: the client
// knows within microseconds, and in-flight requests keep their CPU.
func (s *server) gated(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next(w, r)
		default:
			s.shed.Add(1)
			reqInfoFrom(r).setOutcome(obs.OutcomeShed)
			s.fail(w, r, http.StatusServiceUnavailable, "overloaded",
				"all %d slicing slots busy; retry shortly", cap(s.sem))
		}
	}
}

// sliceRequest is the JSON form of a /slice request body. The raw
// form (program source as the body, criterion in the query string)
// accepts the same algo names.
type sliceRequest struct {
	Source string `json:"source"`
	Var    string `json:"var"`
	Line   int    `json:"line"`
	Algo   string `json:"algo"` // "" = agrawal (Figure 7)
	// body is the request body as read, which a proxied hop forwards
	// unchanged so the owner parses, and size-checks, what the client
	// sent.
	body []byte
}

// sliceResponse is the /slice response. With ?explain=1 it carries
// the slice's provenance, from which the appender renders the reasons
// and listing members between text and duration_ns.
type sliceResponse struct {
	Request    uint64           `json:"request"`
	Algorithm  string           `json:"algorithm"`
	Var        string           `json:"var"`
	Line       int              `json:"line"`
	Lines      []int            `json:"lines"`
	JumpLines  []int            `json:"jump_lines,omitempty"`
	Traversals int              `json:"traversals,omitempty"`
	Text       string           `json:"text"`
	Provenance *core.Provenance `json:"-"`
	DurationNS int64            `json:"duration_ns"`
}

// apiError is the structured error envelope every non-2xx response
// carries: a stable machine-readable code, a human message, the HTTP
// status (so the body is self-describing in logs), and the request ID
// for correlation with the access log and /debug/requests?id=.
type apiError struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Status    int    `json:"status"`
	RequestID uint64 `json:"request_id"`
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for
// "the client disconnected before we could answer". The client never
// sees it; it keeps the access log and metrics honest about whose
// fault the abort was.
const statusClientClosedRequest = 499

// writeJSON encodes an arbitrary value through encoding/json, for the
// /debug endpoints; the serving path's responses use writeResponse.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// fail writes the structured error envelope. 503s carry Retry-After
// so well-behaved clients back off instead of hammering the gate. If
// response bytes are already on the wire (a panic after a partial
// write), the envelope is skipped — the status line cannot change.
func (s *server) fail(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	if sw, ok := w.(*statusWriter); ok && sw.wrote {
		return
	}
	reqInfoFrom(r).setErrCode(code)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeResponse(w, status, &apiError{Error: errorBody{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Status:    status,
		RequestID: requestID(r),
	}})
}

// httpError carries a status and code from request parsing to fail.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, code, format string, args ...any) *httpError {
	return &httpError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// failErr maps an error from the serving path onto the envelope:
// parse-stage httpErrors keep their own status, a request deadline
// answers 503 (the server ran out of time, not the client), a client
// disconnect answers 499 (logged only — the client is gone), and
// anything else at the given stage is a 422 program fault. Client
// mistakes never map to 5xx here; the only 500s the daemon produces
// are recovered panics and Explain failures.
func (s *server) failErr(w http.ResponseWriter, r *http.Request, stage string, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		s.fail(w, r, he.status, he.code, "%s", he.msg)
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, r, http.StatusServiceUnavailable, "timeout",
			"%s: analysis deadline of %s exceeded", stage, s.cfg.Timeout)
	case errors.Is(err, context.Canceled):
		s.fail(w, r, statusClientClosedRequest, "client_closed",
			"%s: canceled: client disconnected", stage)
	default:
		s.fail(w, r, http.StatusUnprocessableEntity, stage+"_failed", "%s: %v", stage, err)
	}
}

// knownAlgos are the /slice algo values the daemon serves: sdg and
// the paper's five intraprocedural algorithms (Figures 7, 12 and 13,
// the LST-driven Figure 7 variant, and the conventional slicer).
var knownAlgos = []string{"agrawal", "agrawal-lst", "structured", "conservative", "conventional", "sdg"}

// parseSliceRequest decodes either request form (a JSON body is
// recognised as jsonBody says, as on /session), enforcing the body
// byte limit; query parameters override the JSON body's criterion.
// Every error is a client fault with its own status: oversized body
// 413, undecodable body or missing criterion 400, unknown algorithm
// 400.
func (s *server) parseSliceRequest(w http.ResponseWriter, r *http.Request) (*sliceRequest, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	req := &sliceRequest{body: body}
	if jsonBody(r, body) {
		if err := json.Unmarshal(body, req); err != nil {
			return nil, httpErrorf(http.StatusBadRequest, "bad_request", "decoding JSON body: %v", err)
		}
	} else {
		req.Source = string(body)
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, httpErrorf(http.StatusBadRequest, "bad_request", "empty program source")
	}
	c, algo, err := parseCriterion(r.URL.Query(), core.Criterion{Var: req.Var, Line: req.Line}, req.Algo)
	if err != nil {
		return nil, err
	}
	req.Var, req.Line, req.Algo = c.Var, c.Line, algo
	return req, nil
}

// failpoint implements the X-Sliced-Fail test header (only when
// cfg.Failpoints): "panic" panics inside the handler to exercise the
// recovery middleware, "block" parks the request — holding its
// admission slot — until the test closes s.unblock or the client
// goes away. It reports whether the request was already answered.
func (s *server) failpoint(w http.ResponseWriter, r *http.Request) (handled bool) {
	if !s.cfg.Failpoints {
		return false
	}
	switch v := r.Header.Get("X-Sliced-Fail"); v {
	case "":
		return false
	case "panic":
		panic("injected failure (X-Sliced-Fail: panic)")
	case "block":
		select {
		case <-s.unblock:
		case <-r.Context().Done():
		}
		return false
	default:
		s.fail(w, r, http.StatusBadRequest, "bad_request", "unknown failpoint %q", v)
		return true
	}
}

func (s *server) handleSlice(w http.ResponseWriter, r *http.Request) {
	if s.failpoint(w, r) {
		return
	}
	req, err := s.parseSliceRequest(w, r)
	if err != nil {
		s.failErr(w, r, "request", err)
		return
	}
	explain, err := boolParam(r, "explain")
	if err != nil {
		s.failErr(w, r, "request", err)
		return
	}
	// The slicer is deterministic, so the request tuple's result-record
	// address identifies the slice content and makes a valid strong
	// validator. (The request and duration_ns response fields vary per
	// request; they are delivery metadata, not content — the semantic
	// payload a client revalidates is the slice itself.)
	rkey := resultKeyFor(req, explain)
	etag := `"` + rkey.Hex() + `"`
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	id := requestID(r)
	ri := reqInfoFrom(r)
	ri.setAlgo(req.Algo)
	start := time.Now()

	// Cluster placement: a request for a program owned by another node
	// is proxied there (one hop max), then the local result tiers —
	// memory, disk — get a chance to answer before the pipeline runs.
	// Every tier is best-effort: any failure falls through to local
	// compute.
	if s.routeSlice(ctx, w, r, req) {
		return
	}
	if s.cluster != nil || s.disk != nil {
		w.Header().Set("X-Sliced-Route", obs.RouteLocal)
	}
	if s.serveResult(w, r, rkey, id, start) {
		return
	}

	a := s.analysisFor(ctx, w, r, req.Source)
	if a == nil {
		return // analysisFor already answered
	}
	ri.setStmts(a.Stmts)
	resp, _ := s.renderSlice(w, r, a, req.Algo, core.Criterion{Var: req.Var, Line: req.Line}, explain)
	if resp == nil {
		return // renderSlice already answered
	}
	ri.setSliceLines(len(resp.Lines))
	// The stored record is the response less the request's own two
	// values, so the response is the record stamped.
	stampRecord(w, s.storeResult(rkey, resp, a.Stmts), id, start)
}

// renderSlice computes one slice of a as the response body /slice and
// PATCH /session/{id} share, less request and duration_ns, plus the
// intraprocedural Slice behind it (nil for sdg) for the session
// delta. A nil body means the failure was already answered.
func (s *server) renderSlice(w http.ResponseWriter, r *http.Request, a *core.Analysis, algo string, c core.Criterion, explain bool) (*sliceResponse, *core.Slice) {
	resp := &sliceResponse{Var: c.Var, Line: c.Line}
	var sl *core.Slice
	var explainer interface {
		Explain() (*core.Provenance, error)
	}
	if algo == "sdg" {
		ps, err := a.ProgramSet()
		var is *core.InterSlice
		if err == nil {
			is, err = ps.SliceInterproc(c)
		}
		if err != nil {
			s.failErr(w, r, "slice", err)
			return nil, nil
		}
		resp.Algorithm, resp.Lines, resp.Traversals, resp.Text = is.Algorithm, is.Lines(), is.Traversals, is.Format()
		resp.JumpLines = is.JumpLines()
		explainer = is
	} else {
		var err error
		if sl, err = baselines.Slice(a, algo, c); err != nil {
			s.failErr(w, r, "slice", err)
			return nil, nil
		}
		resp.Algorithm, resp.Lines, resp.Traversals, resp.Text = sl.Algorithm, sl.Lines(), sl.Traversals, sl.Format()
		resp.JumpLines = sl.JumpLines()
		explainer = sl
	}
	if explain {
		p, err := explainer.Explain()
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.failErr(w, r, "explain", err)
				return nil, nil
			}
			s.fail(w, r, http.StatusInternalServerError, "explain_failed", "explain: %v", err)
			return nil, nil
		}
		resp.Provenance = p
	}
	return resp, sl
}

// buildAnalysis is the uncached analysis path — parse, size gate,
// full pipeline, detach — shared by the direct and cache-mediated
// routes and by session opens, for programs with and without
// procedures. Its errors are httpErrors (client faults keep their
// status through the cache's negative entries) or pipeline errors for
// failErr to map.
func (s *server) buildAnalysis(ctx context.Context, source string, spans *obs.SpanLog) (*core.Analysis, error) {
	prog, n, err := s.parseProgram(source)
	if err != nil {
		return nil, err
	}
	a, err := core.AnalyzeObservedContext(ctx, prog, s.reg, spans)
	if err != nil {
		return nil, err
	}
	return s.detach(a, n)
}

// parseProgram parses a request's program under the statement-count
// limit and returns its statement count; its errors are client-fault
// httpErrors.
func (s *server) parseProgram(source string) (*lang.Program, int, error) {
	prog, err := lang.Parse(source)
	if err != nil {
		return nil, 0, httpErrorf(http.StatusUnprocessableEntity, "invalid_program", "parse: %v", err)
	}
	n := lang.CountStatements(prog)
	if n > s.cfg.MaxStmts {
		return nil, 0, httpErrorf(http.StatusRequestEntityTooLarge, "program_too_large",
			"program has %d statements, over the %d limit", n, s.cfg.MaxStmts)
	}
	return prog, n, nil
}

// analysisFor produces the request's analysis through the cache,
// bound to this request's deadline and span log. The build runs under
// the cache's own context (the result outlives this request); parse
// and size-limit faults ride the cache's negative entries, so
// repeated malformed programs are refused from memory. A nil return
// means the response — error or 304 — was already written.
func (s *server) analysisFor(ctx context.Context, w http.ResponseWriter, r *http.Request, source string) *core.Analysis {
	spans := reqInfoFrom(r).spanLog()
	a, outcome, err := s.cache.Get(ctx, source, func(bctx context.Context) (*core.Analysis, error) {
		return s.buildAnalysis(bctx, source, spans)
	})
	w.Header().Set("X-Cache", outcome.String())
	if err != nil {
		s.failErr(w, r, "analyze", err)
		return nil
	}
	return a.Rebind(ctx, s.reg, spans)
}

// detach readies an analysis for the cache: a program with
// procedures gets its SDG summary edges now, so nothing writes to an
// analysis concurrent requests share, the program's statement count
// stmts is recorded, and the result is bound to no request.
func (s *server) detach(a *core.Analysis, stmts int) (*core.Analysis, error) {
	if len(a.Prog.Procs) > 0 {
		ps, err := a.ProgramSet()
		if err == nil {
			err = ps.EnsureSummaries()
		}
		if err != nil {
			return nil, err
		}
	}
	d := a.Rebind(nil, s.reg, nil)
	d.Stmts = stmts
	return d, nil
}

// etagMatches implements If-None-Match for a single strong validator:
// "*" matches anything, otherwise any listed entity tag must equal
// ours (weak prefixes never match — weak comparison is not valid for
// the byte-range-capable semantics a strong validator advertises).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		if strings.TrimSpace(cand) == etag {
			return true
		}
	}
	return false
}

// handleCache reports the analysis cache's live state: the counters,
// the exact byte ledger, and the configured budget.
func (s *server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Enabled bool             `json:"enabled"`
		Stats   slicecache.Stats `json:"stats"`
	}{true, s.cache.Stats()})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.SampleRuntime()
	obs.WritePrometheus(w, s.reg.Snapshot())
	obs.WriteSLOPrometheus(w, s.slo.Snapshot())
}
