package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"jumpslice/internal/core"
)

// clients is the closed-loop client count of the daemon workloads. One
// client leaves the reference machine's second CPU to the daemon's
// collector and to this process. With two clients on the 2-CPU machine,
// each request also waited for the other client's request whenever the
// two overlapped, and p50 and p99 spread two to three times as far
// between runs. The daemon's default admission limit (2 × GOMAXPROCS)
// sheds nothing at this load.
const clients = 1

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		},
	}
}

// reply is one HTTP exchange as a client saw it.
type reply struct {
	status int
	body   []byte
	rtt    time.Duration // request written to body fully read
	cache  string        // X-Cache
	incr   string        // X-Incremental
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

// do performs one exchange; transport errors land in reply.err.
func do(c *http.Client, method, u, ctype string, body []byte) reply {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err, rtt: time.Since(t0)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status: resp.StatusCode,
		body:   data,
		rtt:    time.Since(t0),
		cache:  resp.Header.Get("X-Cache"),
		incr:   resp.Header.Get("X-Incremental"),
		err:    err,
	}
}

// describe renders a failed reply for an error message.
func (r reply) describe() string {
	if r.err != nil {
		return r.err.Error()
	}
	b := r.body
	if len(b) > 200 {
		b = b[:200]
	}
	return fmt.Sprintf("status %d: %s", r.status, b)
}

// sliceURL is the /slice request URL of a criterion; algo "" is the
// daemon's default (Figure 7).
func sliceURL(d *daemon, c core.Criterion, explain bool, algo string) string {
	q := url.Values{"var": {c.Var}, "line": {strconv.Itoa(c.Line)}}
	if explain {
		q.Set("explain", "1")
	}
	if algo != "" {
		q.Set("algo", algo)
	}
	return "http://" + d.addr + "/slice?" + q.Encode()
}

// slicePost sends one /slice request with the program as a raw body.
func slicePost(c *http.Client, d *daemon, p program, crit core.Criterion, explain bool, algo string) reply {
	return do(c, http.MethodPost, sliceURL(d, crit, explain, algo), "text/plain", []byte(p.src))
}

// openSession opens an editor session and returns its ID.
func openSession(c *http.Client, d *daemon, src string) (string, error) {
	r := do(c, http.MethodPost, "http://"+d.addr+"/session", "text/plain", []byte(src))
	if r.status != http.StatusCreated {
		return "", fmt.Errorf("opening session: %s", r.describe())
	}
	var body struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(r.body, &body); err != nil || body.Session == "" {
		return "", fmt.Errorf("opening session: bad response %q", r.body)
	}
	return body.Session, nil
}

// patchSession sends a one-line edit and re-slices crit.
func patchSession(c *http.Client, d *daemon, id string, e edit, crit core.Criterion) reply {
	body, _ := json.Marshal(map[string]any{"edit": map[string]any{"op": "replace", "line": e.line, "text": e.text}})
	q := url.Values{"var": {crit.Var}, "line": {strconv.Itoa(crit.Line)}}
	return do(c, http.MethodPatch, "http://"+d.addr+"/session/"+id+"?"+q.Encode(), "application/json", body)
}

func closeSession(c *http.Client, d *daemon, id string) error {
	if r := do(c, http.MethodDelete, "http://"+d.addr+"/session/"+id, "", nil); !r.ok() {
		return fmt.Errorf("closing session %s: %s", id, r.describe())
	}
	return nil
}

// serverTime is the handler time a slice or patch response reports.
func serverTime(body []byte) time.Duration {
	var v struct {
		DurationNS int64 `json:"duration_ns"`
	}
	_ = json.Unmarshal(body, &v) // a body without the field reports 0
	return time.Duration(v.DurationNS)
}

// recordReply adds one successful daemon reply of the given kind
// (slice, explain, sdg, patch) to a ledger sink and returns its
// transport time: round trip minus the handler's own time.
func recordReply(rec func(string, float64), kind string, r reply) time.Duration {
	srv := serverTime(r.body)
	rec("sliced.rtt_"+kind+"_us", us(r.rtt))
	rec("sliced.server_us", us(srv))
	rec("sliced.transport_us", us(r.rtt-srv))
	rec("sliced.bytes_out", float64(len(r.body)))
	switch r.cache {
	case "hit":
		rec("slicecache.hit_ratio", 1)
	case "miss", "coalesced":
		rec("slicecache.hit_ratio", 0)
	}
	return r.rtt - srv
}
