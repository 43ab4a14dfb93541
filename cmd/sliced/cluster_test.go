package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jumpslice/internal/obs"
	"jumpslice/internal/paper"
	"jumpslice/internal/slicecache"
)

// clusterNode is one in-process daemon of a test fleet, listening on
// a real TCP port so its peers can reach it.
type clusterNode struct {
	s    *server
	addr string
}

// startCluster boots n daemons that all share the same static peer
// list, waits until every node sees every other node up, and tears
// the fleet down with the test.
func startCluster(t testing.TB, n int, mutate func(i int, cfg *config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range lns {
		cfg := testConfig()
		cfg.PeerList = append([]string{}, addrs...)
		cfg.Self = addrs[i]
		cfg.ProbeInterval = 20 * time.Millisecond
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := newServer(cfg, io.Discard)
		if err := s.openCluster(); err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: s.Handler()}
		go srv.Serve(lns[i])
		t.Cleanup(func() {
			srv.Close()
			s.closeCluster()
		})
		nodes[i] = &clusterNode{s: s, addr: addrs[i]}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		for nd.s.cluster.peers.UpCount() < n-1 {
			if time.Now().After(deadline) {
				t.Fatalf("fleet never converged: node %s sees %d/%d peers up",
					nd.addr, nd.s.cluster.peers.UpCount(), n-1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nodes
}

// bootDisk starts a daemon with a disk result tier on dir;
// resultBytes > 0 overrides the in-memory tier's budget.
func bootDisk(tb testing.TB, dir string, resultBytes int64) (*server, *httptest.Server, func()) {
	tb.Helper()
	cfg := testConfig()
	cfg.DiskDir = dir
	if resultBytes > 0 {
		cfg.ResultBytes = resultBytes
	}
	s := newServer(cfg, io.Discard)
	if err := s.openCluster(); err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() { ts.Close(); s.closeCluster() }
}

// nodeByAddr indexes a fleet by address.
func nodeByAddr(nodes []*clusterNode, addr string) *clusterNode {
	for _, nd := range nodes {
		if nd.addr == addr {
			return nd
		}
	}
	return nil
}

// postNode posts a slice request to one node, optionally with extra
// headers, and returns the response with its decoded body.
func postNode(t *testing.T, addr, query, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/slice?"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// normalizeResponse zeroes the two per-request delivery fields
// (request ID and wall-clock duration) so response bodies can be
// compared byte for byte: everything else in a slice response is a
// pure function of the request tuple.
func normalizeResponse(t *testing.T, body []byte) []byte {
	t.Helper()
	var sr wireSlice
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("undecodable slice response: %v\n%s", err, body)
	}
	sr.Request = 0
	sr.DurationNS = 0
	out, err := json.Marshal(&sr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterRoutingAndProxy is the acceptance choreography: every
// paper figure under every algorithm, with and without explain, is
// computed once by its owner and then answered from the owner's
// result tier — directly, or through a transparent proxy from each
// non-owner — always byte-identical to a single-node daemon's answer.
// The owner's miss computes locally: no peer sees any request but
// its health probes while it runs.
func TestClusterRoutingAndProxy(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	_, solo := newTestServer(t)
	soloAddr := strings.TrimPrefix(solo.URL, "http://")

	type missWindow struct {
		owner    *clusterNode
		from, to int64
	}
	var misses []missWindow
	for _, f := range paper.All() {
		key := slicecache.KeyOf(f.Source)
		owner := nodeByAddr(nodes, nodes[0].s.cluster.ring.Owner(key[:]))
		if owner == nil {
			t.Fatal("ring named an owner outside the fleet")
		}
		analyzed := false
		for _, algo := range knownAlgos {
			for _, explain := range []string{"0", "1"} {
				query := fmt.Sprintf("var=%s&line=%d&algo=%s&explain=%s", f.Criterion.Var, f.Criterion.Line, algo, explain)
				what := f.Name + " " + query
				soloResp, soloBody := postNode(t, soloAddr, query, f.Source, nil)
				if soloResp.StatusCode != http.StatusOK {
					// Figures 12 and 13 refuse unstructured jumps; every
					// node refuses the same way.
					want := decodeErr(t, soloBody)
					for _, nd := range nodes {
						resp, body := postNode(t, nd.addr, query, f.Source, nil)
						if got := decodeErr(t, body); resp.StatusCode != soloResp.StatusCode || got.Code != want.Code {
							t.Fatalf("%s on %s: %d %q, solo %d %q", what, nd.addr, resp.StatusCode, got.Code, soloResp.StatusCode, want.Code)
						}
					}
					continue
				}
				want := normalizeResponse(t, soloBody)

				// The owner's first answer is computed: the figure's
				// first tuple analyzes it, later tuples reuse the
				// analysis.
				first := "hit"
				if !analyzed {
					first, analyzed = "miss", true
				}
				from := time.Now().UnixNano()
				resp, body := postNode(t, owner.addr, query, f.Source, nil)
				misses = append(misses, missWindow{owner, from, time.Now().UnixNano()})
				checkServed(t, what+" (owner, first)", resp, body, want, first, obs.RouteLocal, owner.addr, "")
				for _, nd := range append([]*clusterNode{owner}, nodes...) {
					resp, body := postNode(t, nd.addr, query, f.Source, nil)
					if nd == owner {
						checkServed(t, what+" (owner)", resp, body, want, "result", obs.RouteLocal, owner.addr, "")
					} else {
						checkServed(t, what+" (via "+nd.addr+")", resp, body, want, "result", obs.RouteProxied, owner.addr, owner.addr)
					}
				}
			}
		}
	}
	if len(misses) == 0 {
		t.Fatal("no request was served")
	}
	for _, m := range misses {
		for _, nd := range nodes {
			if nd == m.owner {
				continue
			}
			for _, ev := range nd.s.requests.Query(obs.Filter{SinceNS: m.from, UntilNS: m.to}, -1) {
				if ev.Endpoint != "/healthz" {
					t.Fatalf("peer %s saw %s %s during the owner's miss", nd.addr, ev.Method, ev.Path)
				}
			}
		}
	}

	// The loop guard: a request that already hopped is served where it
	// lands, whoever owns it.
	src := fig5(t)
	key := slicecache.KeyOf(src)
	var other *clusterNode
	for _, nd := range nodes {
		if nd.addr != nodes[0].s.cluster.ring.Owner(key[:]) {
			other = nd
			break
		}
	}
	resp, _ := postNode(t, other.addr, "var=positives&line=14", src, map[string]string{routedFromHeader: "test"})
	if got := resp.Header.Get("X-Sliced-Route"); resp.StatusCode != http.StatusOK || got != obs.RouteLocal {
		t.Fatalf("hopped request: status %d route %q, want 200 local (loop guard)", resp.StatusCode, got)
	}

	// The wide events carry the route taxonomy, and the ?route= filter
	// is strict.
	r, err := http.Get("http://" + other.addr + "/debug/requests?route=proxied")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Requests []struct {
			Route string `json:"route"`
			Peer  string `json:"peer"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(r.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(page.Requests) == 0 {
		t.Fatal("?route=proxied returned no events")
	}
	for _, ev := range page.Requests {
		if ev.Route != obs.RouteProxied || ev.Peer == "" || ev.Peer == other.addr {
			t.Fatalf("?route=proxied returned %+v", ev)
		}
	}
	for _, route := range []string{"bogus", "peer-fill"} {
		r, err = http.Get("http://" + other.addr + "/debug/requests?route=" + route)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, r)
		r.Body.Close()
		if r.StatusCode != http.StatusUnprocessableEntity || env.Code != "invalid_parameter" {
			t.Fatalf("?route=%s answered %d %q, want 422 invalid_parameter", route, r.StatusCode, env.Code)
		}
	}
}

// decodeErr decodes an error envelope from a response body.
func decodeErr(t *testing.T, body []byte) errorBody {
	t.Helper()
	var ae apiError
	if err := json.Unmarshal(body, &ae); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v\n%s", err, body)
	}
	return ae.Error
}

// checkServed asserts one clustered /slice answer: status 200, the
// cache tier, route, serving node and proxy peer ("" for none), and a
// body that normalizes to want.
func checkServed(t *testing.T, what string, resp *http.Response, body, want []byte, cache, route, node, peer string) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, resp.StatusCode, body)
	}
	for _, h := range [][2]string{{"X-Cache", cache}, {"X-Sliced-Route", route}, {"X-Sliced-Node", node}, {"X-Sliced-Peer", peer}} {
		if got := resp.Header.Get(h[0]); got != h[1] {
			t.Fatalf("%s: %s = %q, want %q", what, h[0], got, h[1])
		}
	}
	if got := normalizeResponse(t, body); string(got) != string(want) {
		t.Fatalf("%s: body diverges from single-node:\n%s\nvs\n%s", what, got, want)
	}
}

// A node whose key owner is down serves locally instead of erroring.
func TestClusterOwnerDownDegradesToLocal(t *testing.T) {
	// One live node in a configured fleet of three: the two dead
	// addresses never come up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := ln.Addr().String()
	cfg := testConfig()
	cfg.PeerList = []string{self, "127.0.0.1:1", "127.0.0.1:2"}
	cfg.Self = self
	cfg.ProbeInterval = 10 * time.Millisecond
	s := newServer(cfg, io.Discard)
	if err := s.openCluster(); err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); s.closeCluster() })

	// Whoever owns fig5, a request here must be served here: either we
	// own it, or the owner is down and routing degrades to local.
	resp, body := postNode(t, self, "var=positives&line=14", fig5(t), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request answered %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Sliced-Route"); got != "local" {
		t.Fatalf("route = %q, want local", got)
	}
}

// TestClusterWarmRestartFromDisk is the warm-restart acceptance: a
// record computed before a restart is served after it straight from
// the disk tier, with zero pipeline work on the restarted node.
func TestClusterWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	src := fig5(t)
	const query = "var=positives&line=14"

	s1, ts1, stop1 := bootDisk(t, dir, 0)
	resp1, sr1 := postSlice(t, ts1, query, src)
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	if got := resp1.Header.Get("X-Sliced-Route"); got != "local" {
		t.Fatalf("route = %q, want local", got)
	}
	resp2, _ := postSlice(t, ts1, query, src)
	if got := resp2.Header.Get("X-Cache"); got != "result" {
		t.Fatalf("second request X-Cache = %q, want result", got)
	}
	if s1.reg.Counter("core.slices").Value() != 1 {
		t.Fatalf("core.slices = %d after a miss and a result hit, want 1", s1.reg.Counter("core.slices").Value())
	}
	stop1()

	s2, ts2, stop2 := bootDisk(t, dir, 0)
	defer stop2()
	resp3, sr3 := postSlice(t, ts2, query, src)
	if got := resp3.Header.Get("X-Cache"); got != "disk" {
		t.Fatalf("post-restart X-Cache = %q, want disk (warm hit)", got)
	}
	if got := s2.reg.Counter("core.slices").Value(); got != 0 {
		t.Fatalf("restarted node ran %d slices for a warm hit, want 0", got)
	}
	// Same content as before the restart.
	sr1.Request, sr3.Request = 0, 0
	sr1.DurationNS, sr3.DurationNS = 0, 0
	b1, _ := json.Marshal(sr1)
	b3, _ := json.Marshal(sr3)
	if string(b1) != string(b3) {
		t.Fatalf("warm-restart body diverges:\n%s\nvs\n%s", b1, b3)
	}
	// And it promoted: the next hit is from memory.
	resp4, _ := postSlice(t, ts2, query, src)
	if got := resp4.Header.Get("X-Cache"); got != "result" {
		t.Fatalf("post-promotion X-Cache = %q, want result", got)
	}

	// /debug/cluster reports the tiers.
	r, err := http.Get(ts2.URL + "/debug/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var dbg struct {
		Enabled bool `json:"enabled"`
		Tiers   struct {
			Result *slicecache.ResultStats `json:"result"`
			Disk   *struct {
				Entries int `json:"entries"`
			} `json:"disk"`
		} `json:"tiers"`
	}
	if err := json.NewDecoder(r.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if !dbg.Enabled || dbg.Tiers.Result == nil || dbg.Tiers.Disk == nil || dbg.Tiers.Disk.Entries == 0 {
		t.Fatalf("/debug/cluster = %+v", dbg)
	}
}

// A proxied request cut short by its own client or deadline must not
// blame the owner: the hop failed because the request ended, not
// because the owner is unhealthy. Marking it down would serve every
// key it owns degraded until the next probe. The hang-up case runs
// under -timeout 0, where the hop has no deadline of its own.
func TestClusterProxyCancelKeepsOwnerUp(t *testing.T) {
	for _, tc := range []struct {
		name          string
		timeout       time.Duration // the fleet's -timeout
		clientTimeout time.Duration
		outcome       string
	}{
		{"client hang-up", 0, 200 * time.Millisecond, obs.OutcomeCanceled},
		{"request deadline", 200 * time.Millisecond, 0, obs.OutcomeTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startCluster(t, 3, func(_ int, cfg *config) { cfg.Timeout = tc.timeout })
			src := fig5(t)
			key := slicecache.KeyOf(src)
			owner := nodeByAddr(nodes, nodes[0].s.cluster.ring.Owner(key[:]))
			var ingress *clusterNode
			for _, nd := range nodes {
				if nd != owner {
					ingress = nd
					break
				}
			}
			// The ingress passes the block failpoint; the forwarded
			// header parks the request on the owner until the hop is
			// abandoned.
			close(ingress.s.unblock)
			transitions := ingress.s.reg.Counter("cluster.probe_transitions").Value()

			req, err := http.NewRequest(http.MethodPost, "http://"+ingress.addr+"/slice?var=positives&line=14", strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Sliced-Fail", "block")
			resp, err := (&http.Client{Timeout: tc.clientTimeout}).Do(req)
			if err == nil {
				resp.Body.Close()
				if tc.clientTimeout > 0 || resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("blocked request answered %d", resp.StatusCode)
				}
			}
			// Wait for the ingress to finish the request: its wide
			// event is recorded last.
			var evs []obs.WideEvent
			deadline := time.Now().Add(5 * time.Second)
			for len(evs) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the ingress never finished the request")
				}
				time.Sleep(5 * time.Millisecond)
				evs = ingress.s.requests.Query(obs.Filter{Endpoint: "/slice"}, -1)
			}
			if ev := evs[0]; ev.Outcome != tc.outcome || ev.Route != obs.RouteProxied || ev.Peer != owner.addr {
				t.Errorf("request logged outcome %q route %q peer %q, want %s, proxied to %s", ev.Outcome, ev.Route, ev.Peer, tc.outcome, owner.addr)
			}
			if got := ingress.s.reg.Counter("cluster.proxy_errors").Value(); got != 0 {
				t.Errorf("cluster.proxy_errors = %d, want 0", got)
			}
			if got := ingress.s.reg.Counter("cluster.probe_transitions").Value(); got != transitions {
				t.Errorf("probe transitions went %d -> %d: the healthy owner was marked down", transitions, got)
			}
			if !ingress.s.cluster.peers.Up(owner.addr) {
				t.Error("the healthy owner is down on the ingress")
			}
		})
	}
}

// TestClusterProxyForwardsClientBody pins the hop to the bytes the
// client sent: a body within -max-body at the ingress is within it at
// the owner, in both request forms. The limit is the JSON body's
// exact size; the raw body is smaller, and any re-encoding of either
// (escaped '<', an added "algo" member) would exceed it.
func TestClusterProxyForwardsClientBody(t *testing.T) {
	src := fig5(t)
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(map[string]any{"source": src, "var": "positives", "line": 14}); err != nil {
		t.Fatal(err)
	}
	jsonSrc := buf.String()
	nodes := startCluster(t, 2, func(_ int, cfg *config) { cfg.MaxBody = int64(len(jsonSrc)) })
	key := slicecache.KeyOf(src)
	owner := nodeByAddr(nodes, nodes[0].s.cluster.ring.Owner(key[:]))
	ingress := nodes[0]
	if ingress == owner {
		ingress = nodes[1]
	}
	for _, tc := range []struct {
		name, query, body, contentType string
	}{
		{"raw source with query", "var=positives&line=14&algo=agrawal-lst", src, "text/plain"},
		{"JSON with criterion in body", "", jsonSrc, "application/json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hdr := map[string]string{"Content-Type": tc.contentType}
			direct, directBody := postNode(t, owner.addr, tc.query, tc.body, hdr)
			if direct.StatusCode != http.StatusOK {
				t.Fatalf("owner answered %d: %s", direct.StatusCode, directBody)
			}
			resp, body := postNode(t, ingress.addr, tc.query, tc.body, hdr)
			checkServed(t, "via "+ingress.addr, resp, body, normalizeResponse(t, directBody), "result", obs.RouteProxied, owner.addr, owner.addr)
		})
	}
}
