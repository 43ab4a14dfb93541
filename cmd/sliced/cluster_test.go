package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
func startCluster(t *testing.T, n int, mutate func(i int, cfg *config)) []*clusterNode {
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
	var sr sliceResponse
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

// TestClusterRoutingFillAndProxy is the acceptance choreography: a
// record computed on one node is answered everywhere — by peer fill
// on the key's owner, from memory afterwards, and through a
// transparent proxy from a non-owner — always byte-identical to a
// single-node daemon's answer.
func TestClusterRoutingFillAndProxy(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	src := fig5(t)
	const query = "var=positives&line=14"

	key := slicecache.KeyOf(src)
	owner := nodeByAddr(nodes, nodes[0].s.cluster.ring.Owner(key[:]))
	if owner == nil {
		t.Fatal("ring named an owner outside the fleet")
	}
	// Seed a non-owner: the routed-from marker forces local serving, so
	// this node computes and stores the record without consulting the
	// ring.
	var seed *clusterNode
	for _, nd := range nodes {
		if nd != owner {
			seed = nd
			break
		}
	}
	resp, body := postNode(t, seed.addr, query, src, map[string]string{routedFromHeader: "test"})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("seed request: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if got := resp.Header.Get("X-Sliced-Route"); got != "local" {
		t.Fatalf("hopped request route = %q, want local (loop guard)", got)
	}

	// Reference: a plain single-node daemon with no cluster plane.
	_, solo := newTestServer(t)
	soloResp, err := http.Post(solo.URL+"/slice?"+query, "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	soloBody, _ := io.ReadAll(soloResp.Body)
	soloResp.Body.Close()
	want := normalizeResponse(t, soloBody)
	if got := normalizeResponse(t, body); string(got) != string(want) {
		t.Fatalf("seed node body diverges from single-node:\n%s\nvs\n%s", got, want)
	}

	// The owner misses locally and fills from the seed peer.
	resp, body = postNode(t, owner.addr, query, src, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner request: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "peer-fill" {
		t.Fatalf("owner X-Cache = %q, want peer-fill", got)
	}
	if got := resp.Header.Get("X-Sliced-Route"); got != "peer-fill" {
		t.Fatalf("owner route = %q, want peer-fill", got)
	}
	if got := resp.Header.Get("X-Sliced-Peer"); got != seed.addr {
		t.Fatalf("fill peer = %q, want the seed %q", got, seed.addr)
	}
	if got := normalizeResponse(t, body); string(got) != string(want) {
		t.Fatalf("peer-filled body diverges from single-node:\n%s\nvs\n%s", got, want)
	}

	// The fill promoted the record: the owner now answers from memory.
	resp, body = postNode(t, owner.addr, query, src, nil)
	if got := resp.Header.Get("X-Cache"); got != "result" {
		t.Fatalf("owner second X-Cache = %q, want result", got)
	}
	if got := normalizeResponse(t, body); string(got) != string(want) {
		t.Fatal("memory-served body diverges")
	}

	// The third node proxies to the owner transparently.
	var third *clusterNode
	for _, nd := range nodes {
		if nd != owner && nd != seed {
			third = nd
		}
	}
	resp, body = postNode(t, third.addr, query, src, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied request: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Sliced-Route"); got != "proxied" {
		t.Fatalf("third-node route = %q, want proxied", got)
	}
	if got := resp.Header.Get("X-Sliced-Node"); got != owner.addr {
		t.Fatalf("proxied X-Sliced-Node = %q, want the owner %q", got, owner.addr)
	}
	if got := resp.Header.Get("X-Sliced-Peer"); got != owner.addr {
		t.Fatalf("proxied X-Sliced-Peer = %q, want %q", got, owner.addr)
	}
	if got := resp.Header.Get("X-Cache"); got != "result" {
		t.Fatalf("proxied X-Cache = %q, want result (the owner's verdict rides through)", got)
	}
	if got := normalizeResponse(t, body); string(got) != string(want) {
		t.Fatal("proxied body diverges")
	}

	// The wide events carry the route taxonomy, and the ?route= filter
	// is strict.
	r, err := http.Get("http://" + third.addr + "/debug/requests?route=proxied")
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
	if len(page.Requests) != 1 || page.Requests[0].Peer != owner.addr {
		t.Fatalf("?route=proxied returned %+v", page.Requests)
	}
	r, err = http.Get("http://" + third.addr + "/debug/requests?route=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("?route=bogus answered %d, want 422", r.StatusCode)
	}
}

// A corrupt peer fill — every candidate serving torn records — must
// fall back to local compute: 200, correct body, cluster.fill_corrupt
// counted, never a 5xx.
func TestClusterFillCorruptFallsBackToCompute(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	src := fig5(t)
	const query = "var=positives&line=14"

	key := slicecache.KeyOf(src)
	owner := nodeByAddr(nodes, nodes[0].s.cluster.ring.Owner(key[:]))
	var seed *clusterNode
	for _, nd := range nodes {
		if nd != owner {
			seed = nd
			break
		}
	}
	if resp, _ := postNode(t, seed.addr, query, src, map[string]string{routedFromHeader: "test"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status %d", resp.StatusCode)
	}

	// The failpoint header rides the fill fetch, so every candidate
	// that holds the record serves it torn.
	resp, body := postNode(t, owner.addr, query, src, map[string]string{"X-Sliced-Fail": "fill-corrupt"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt-fill request answered %d, want 200 via local compute: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss (fell back to compute)", got)
	}
	var sr sliceResponse
	if err := json.Unmarshal(body, &sr); err != nil || len(sr.Lines) == 0 {
		t.Fatalf("fallback body broken: %v %s", err, body)
	}
	if got := owner.s.reg.Counter("cluster.fill_corrupt").Value(); got < 1 {
		t.Fatalf("cluster.fill_corrupt = %d, want >= 1", got)
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

// The fill endpoint validates its key strictly and serves cache state
// only.
func TestFillEndpointValidation(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DiskDir = dir
	s := newServer(cfg, io.Discard)
	if err := s.openCluster(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.closeCluster)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, bad := range []string{"", "zz", "abc123", strings.Repeat("q", 64)} {
		r, err := http.Get(ts.URL + "/internal/fill?key=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		var env apiError
		if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != "invalid_parameter" {
			t.Fatalf("key=%q answered %d code %q, want 422 invalid_parameter", bad, r.StatusCode, env.Error.Code)
		}
	}
	// A well-formed but absent key is a 404 miss.
	r, err := http.Get(ts.URL + "/internal/fill?key=" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key answered %d, want 404", r.StatusCode)
	}
}

// TestClusterWarmRestartFromDisk is the warm-restart acceptance: a
// record computed before a restart is served after it straight from
// the disk tier, with zero pipeline work on the restarted node.
func TestClusterWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*server, *httptest.Server, func()) {
		cfg := testConfig()
		cfg.DiskDir = dir
		s := newServer(cfg, io.Discard)
		if err := s.openCluster(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts, func() { ts.Close(); s.closeCluster() }
	}
	src := fig5(t)
	const query = "var=positives&line=14"

	s1, ts1, stop1 := boot()
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

	s2, ts2, stop2 := boot()
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
