package main

// The daemon's telemetry plane: wide request events, sliding-window
// SLOs, and build/runtime health reporting.
//
// Every request is summarized into exactly one obs.WideEvent by the
// instrument middleware — endpoint, status, duration, response bytes,
// per-phase pipeline timings, cache and incremental tiers, slice
// size, and how the request ended (ok / client_error / error / shed /
// timeout / canceled / panic). The same record is (a) emitted as the
// JSON access log line and (b) kept in a bounded ring served by GET
// /debug/requests, so the log stream and the queryable view can never
// disagree. The event also feeds the per-endpoint SLO window, whose
// per-bucket slowest request ID (the exemplar) links a latency spike
// straight back to that request's wide event at GET
// /debug/requests?id=.
//
// Handlers annotate the in-flight event through a *reqInfo carried in
// the request context; all reqInfo setters are nil-safe so handlers
// invoked outside the middleware (direct tests) need no guards.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"jumpslice/internal/obs"
)

// reqInfo is the per-request annotation sheet handlers fill in while
// serving; the instrument middleware folds it into the wide event
// after the response is written. A request is served by exactly one
// goroutine, so plain fields suffice (the SpanLog has its own lock —
// a coalesced cache build may record spans from another goroutine).
type reqInfo struct {
	algo       string
	stmts      int
	sliceLines int
	errCode    string
	outcome    string // set only by gate/panic paths; "" = derive from status
	spans      *obs.SpanLog
}

func (ri *reqInfo) setAlgo(a string) {
	if ri != nil {
		ri.algo = a
	}
}

func (ri *reqInfo) setStmts(n int) {
	if ri != nil {
		ri.stmts = n
	}
}

func (ri *reqInfo) setSliceLines(n int) {
	if ri != nil {
		ri.sliceLines = n
	}
}

func (ri *reqInfo) setErrCode(c string) {
	if ri != nil {
		ri.errCode = c
	}
}

func (ri *reqInfo) setOutcome(o string) {
	if ri != nil {
		ri.outcome = o
	}
}

func (ri *reqInfo) spanLog() *obs.SpanLog {
	if ri == nil {
		return nil
	}
	return ri.spans
}

const reqInfoKey ctxKey = 1

// reqInfoFrom returns the request's annotation sheet (nil outside the
// middleware; every use is nil-safe).
func reqInfoFrom(r *http.Request) *reqInfo {
	ri, _ := r.Context().Value(reqInfoKey).(*reqInfo)
	return ri
}

// endpointOf normalizes a request path to its bounded-cardinality
// route label: dynamic segments collapse ("/session/17" →
// "/session/{id}"), unknown paths fold to "(other)" so a URL scanner
// cannot inflate the SLO map.
func endpointOf(path string) string {
	switch path {
	case "/slice", "/session", "/metrics", "/healthz",
		"/debug/cache", "/debug/requests", "/debug/slo", "/debug/build",
		"/debug/cluster":
		return path
	}
	if strings.HasPrefix(path, "/session/") {
		return "/session/{id}"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "(other)"
}

// outcomeOf classifies how the request ended. Explicit outcomes from
// the admission gate ("shed") and panic recovery ("panic") win;
// otherwise the status and envelope code decide.
func outcomeOf(ri *reqInfo, status int) string {
	var code string
	if ri != nil {
		if ri.outcome != "" {
			return ri.outcome
		}
		code = ri.errCode
	}
	switch {
	case status == statusClientClosedRequest:
		return obs.OutcomeCanceled
	case code == "timeout":
		return obs.OutcomeTimeout
	case status >= 500:
		return obs.OutcomeError
	case status >= 400:
		return obs.OutcomeClientError
	}
	return obs.OutcomeOK
}

// instrument is the outermost middleware: it assigns the request ID,
// measures the whole exchange, assembles the wide event, records it
// into the request ring and the SLO window, and emits the access log
// line.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := uint64(s.reqID.Add(1))
		w.Header().Set("X-Request-ID", strconv.FormatUint(id, 10))
		// In cluster mode every response names the node that serves it;
		// the proxy path overrides this with the upstream's value, so
		// the header always names the node that did the work.
		if s.cluster != nil {
			w.Header().Set("X-Sliced-Node", s.cluster.self)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ri := &reqInfo{spans: &obs.SpanLog{}}
		ctx := context.WithValue(r.Context(), reqIDKey, id)
		ctx = context.WithValue(ctx, reqInfoKey, ri)
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(start)

		ev := obs.WideEvent{
			Req:         id,
			TimeNS:      start.UnixNano(),
			Method:      r.Method,
			Path:        r.URL.Path,
			Endpoint:    endpointOf(r.URL.Path),
			Status:      sw.status,
			DurationNS:  dur.Nanoseconds(),
			BytesOut:    sw.bytes,
			Outcome:     outcomeOf(ri, sw.status),
			ErrorCode:   ri.errCode,
			Algo:        ri.algo,
			Stmts:       ri.stmts,
			SliceLines:  ri.sliceLines,
			Cache:       sw.Header().Get("X-Cache"),
			Incremental: sw.Header().Get("X-Incremental"),
			Route:       sw.Header().Get("X-Sliced-Route"),
			Peer:        sw.Header().Get("X-Sliced-Peer"),
			Phases:      ri.spans.Spans(),
		}
		s.requests.Record(ev)
		s.slo.Observe(ev.Endpoint, ev.Status, ev.Outcome == obs.OutcomeShed, dur, id)
		s.logAccess(&ev)
	})
}

// logAccess emits one access log line per request: the wide event's
// json.Marshal bytes, on one line after the logger's time stamp. The
// line is the daemon's durable request record, which obs.ReadJSONL
// (slicequery -log) reads back.
func (s *server) logAccess(ev *obs.WideEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		s.logger.Printf("req=%d access-log marshal failed: %v", ev.Req, err)
		return
	}
	s.logger.Print(string(data))
}

// handleRequests (GET /debug/requests) serves the wide-event ring,
// newest last, optionally filtered. All filters validate strictly: a
// filter that says "status 5xx please" but sends garbage answers a
// structured 422, never a silently unfiltered dump.
//
//	?id=N         only the event of request N (its X-Request-ID)
//	?status=N     only events with that exact response status
//	?min_ms=N     only events at least N milliseconds slow
//	?endpoint=E   only events on that normalized endpoint
//	?outcome=O    only events that ended that way (one of the
//	              outcome taxonomy: ok, client_error, error, shed,
//	              timeout, canceled, panic)
//	?route=R      only events cluster routing placed that way (one of
//	              local, proxied)
//	?n=N          at most the newest N matching events
func (s *server) handleRequests(w http.ResponseWriter, r *http.Request) {
	f, n, err := requestsQuery(r.URL.Query())
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "invalid_parameter", "parameter %v", err)
		return
	}
	matched := s.requests.Query(f, n)
	writeJSON(w, http.StatusOK, struct {
		Written  uint64          `json:"written"`
		Capacity int             `json:"capacity"`
		Count    int             `json:"count"`
		Requests []obs.WideEvent `json:"requests"`
	}{s.requests.Written(), s.requests.Cap(), len(matched), matched})
}

// requestsQuery parses /debug/requests' parameters into the filter
// and the row limit (-1 when unlimited). A parameter that is present
// must be valid, even when empty.
func requestsQuery(q url.Values) (f obs.Filter, n int, err error) {
	intParam := func(name string, min, max int) (int, error) {
		v := q.Get(name)
		i, err := strconv.Atoi(v)
		if err != nil || i < min || (max > 0 && i > max) {
			return 0, fmt.Errorf("%s must be an integer in [%d, %d], got %q", name, min, max, v)
		}
		return i, nil
	}
	n = -1
	if q.Has("id") {
		v := q.Get("id")
		if f.Req, err = strconv.ParseUint(v, 10, 64); err != nil || f.Req == 0 {
			return f, n, fmt.Errorf("id must be a positive integer, got %q", v)
		}
	}
	if q.Has("status") {
		if f.Status, err = intParam("status", 100, 599); err != nil {
			return f, n, err
		}
	}
	if q.Has("min_ms") {
		ms, err := intParam("min_ms", 0, 0)
		if err != nil {
			return f, n, err
		}
		f.MinDurNS = int64(ms) * int64(time.Millisecond)
	}
	if q.Has("n") {
		if n, err = intParam("n", 0, 0); err != nil {
			return f, n, err
		}
	}
	if q.Has("endpoint") {
		if f.Endpoint = q.Get("endpoint"); f.Endpoint == "" {
			return f, n, fmt.Errorf("endpoint must name a route (e.g. /slice), got %q", f.Endpoint)
		}
	}
	if q.Has("outcome") {
		f.Outcome = q.Get("outcome")
		if err = obs.CheckOutcome(f.Outcome); err != nil {
			return f, n, err
		}
	}
	if q.Has("route") {
		f.Route = q.Get("route")
		err = obs.CheckRoute(f.Route)
	}
	return f, n, err
}

// handleSLO (GET /debug/slo) serves the sliding-window SLO view:
// per-endpoint percentiles, error/shed rates, burn rates against the
// configured objectives, and the per-bucket exemplars.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// buildDetails is the /debug/build payload, resolved once at startup.
type buildDetails struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path"`
	Revision  string `json:"revision"`
	VCSTime   string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// readBuildDetails extracts version provenance from the binary's
// embedded build info. Binaries built outside a VCS checkout (go test,
// plain go build of a tarball) report revision "unknown".
func readBuildDetails() buildDetails {
	d := buildDetails{Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return d
	}
	d.GoVersion = bi.GoVersion
	d.Path = bi.Main.Path
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			d.Revision = kv.Value
		case "vcs.time":
			d.VCSTime = kv.Value
		case "vcs.modified":
			d.Modified = kv.Value == "true"
		}
	}
	return d
}

// handleBuild (GET /debug/build) reports what this binary is.
func (s *server) handleBuild(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.build)
}

// handleHealthz (GET /healthz) is the liveness probe; it names the
// build revision so a fleet rollout can be confirmed endpoint by
// endpoint.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Revision string `json:"revision"`
	}{"ok", s.build.Revision})
}
