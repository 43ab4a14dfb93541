package main

// The daemon's cluster plane: consistent-hash routing over the
// program's content address, transparent proxying to the ring owner,
// peer cache fill on local miss, and the disk-backed result tier that
// makes restarts warm.
//
// The flow for one clustered /slice request:
//
//  1. The ring (built over the full static -peers list) names the
//     owner of the program's content address. A request landing on
//     the wrong node is proxied to the owner — unless it already
//     carries X-Sliced-Routed-From (one hop max) or the owner is
//     down, in which case the local node serves it degraded.
//  2. The serving node consults its result cache (memory over disk).
//     A hit answers without touching the pipeline (X-Cache: result or
//     disk).
//  3. On a miss, cluster mode asks ring-adjacent peers for the
//     serialized record (X-Cache: peer-fill). A fill that fails —
//     peers down, record absent, record corrupt — falls back to local
//     compute; it can degrade latency, never a response.
//  4. A locally computed response is serialized canonically (the
//     per-request fields zeroed) and written through to the result
//     tiers, making it available to peers and to the next restart.
//
// Routing is over the analysis key (the whole program source), not
// the result key (source + criterion + algorithm): all criteria of
// one program land on one node, so its *core.Analysis is built once
// fleet-wide and stays hot there.

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"jumpslice/internal/cluster"
	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache"
	"jumpslice/internal/slicecache/disk"
)

// routedFromHeader marks a proxied request with the node that
// forwarded it. Its presence is the loop guard: a request that
// already hopped is served where it lands, no matter what the ring
// says.
const routedFromHeader = "X-Sliced-Routed-From"

// fillCandidates is how many ring-adjacent peers a cache fill tries,
// fillTimeout the deadline of one fill hop, and probeTimeout the peer
// health probe's deadline.
const (
	fillCandidates = 2
	fillTimeout    = 500 * time.Millisecond
	probeTimeout   = 500 * time.Millisecond
)

// clusterState is the daemon's routing fabric; nil when -peers is
// unset.
type clusterState struct {
	self   string
	ring   *cluster.Ring
	peers  *cluster.Peers
	filler *cluster.Filler
	client *http.Client // proxy transport

	localServes *obs.Counter
	proxied     *obs.Counter
	proxyErrors *obs.Counter
	fillServes  *obs.Counter
}

// openCluster brings up the persistence and routing tiers from the
// config: the disk store (when -disk-dir is set), the result cache
// (when clustering or the disk tier is on), and the ring, peer
// prober, and fill client (when -peers is set). It must run before
// the first request, like openSpool; serveOn does, and cluster tests
// call it directly.
func (s *server) openCluster() error {
	if s.cfg.DiskDir != "" {
		st, err := disk.Open(disk.Options{
			Dir:      s.cfg.DiskDir,
			MaxBytes: s.cfg.DiskBytes,
			Recorder: s.reg,
		})
		if err != nil {
			return err
		}
		s.disk = st
		s.logger.Printf("disk result tier on %s (budget %d bytes)", s.cfg.DiskDir, st.Stats().MaxBytes)
	}
	if s.cfg.DiskDir != "" || len(s.cfg.PeerList) > 0 {
		s.results = slicecache.NewResultCache(slicecache.ResultOptions{
			MaxBytes: s.cfg.ResultBytes,
			Disk:     s.disk,
			Recorder: s.reg,
		})
	}
	if len(s.cfg.PeerList) == 0 {
		return nil
	}
	// The ring spans the full configured list plus self: ownership is a
	// function of configuration, never of health — a probe flap must
	// not reshuffle keys.
	nodes := append(append([]string{}, s.cfg.PeerList...), s.cfg.Self)
	peers := cluster.NewPeers(s.cfg.Self, s.cfg.PeerList, cluster.ProbeOptions{
		Interval: s.cfg.ProbeInterval,
		Timeout:  probeTimeout,
		Recorder: s.reg,
	})
	c := &clusterState{
		self:   s.cfg.Self,
		ring:   cluster.NewRing(nodes),
		peers:  peers,
		client: &http.Client{Timeout: s.cfg.Timeout + 5*time.Second},

		localServes: s.reg.Counter("cluster.local_serves"),
		proxied:     s.reg.Counter("cluster.proxied"),
		proxyErrors: s.reg.Counter("cluster.proxy_errors"),
		fillServes:  s.reg.Counter("cluster.fill_serves"),
	}
	c.filler = cluster.NewFiller(cluster.FillOptions{
		Timeout:  fillTimeout,
		MaxBytes: s.cfg.MaxBody * 16,
		Validate: validateRecord,
		Peers:    peers,
		Recorder: s.reg,
	})
	peers.Start()
	s.cluster = c
	s.logger.Printf("cluster mode: self=%s peers=%d vnodes=%d", c.self, len(s.cfg.PeerList), cluster.Vnodes)
	return nil
}

// closeCluster stops the prober and seals the disk tier.
func (s *server) closeCluster() {
	if s.cluster != nil {
		s.cluster.peers.Close()
	}
	if s.disk != nil {
		s.disk.Close()
	}
}

// validateRecord vets a peer-filled record before it is trusted: it
// must decode as a slice response that actually carries a slice. A
// record failing here counts cluster.fill_corrupt and the fill moves
// on — a corrupt peer costs a recompute, never a bad answer.
func validateRecord(data []byte) error {
	var resp sliceResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	if resp.Algorithm == "" || len(resp.Lines) == 0 {
		return fmt.Errorf("record missing algorithm or lines")
	}
	return nil
}

// resultKeyFor derives the result-record address for one request: the
// full tuple the response content depends on. The slicer is
// deterministic, so the same address is the response's strong ETag.
func resultKeyFor(req *sliceRequest, explain bool) slicecache.ResultKey {
	return slicecache.ResultKeyOf(req.Source, req.Var, strconv.Itoa(req.Line), req.Algo, strconv.FormatBool(explain))
}

// routeSlice decides placement for a parsed /slice request and, when
// the owner is another live node, proxies to it. It reports whether
// the response was written; false means "serve locally" (we own the
// key, the owner is down, or the request already hopped).
func (s *server) routeSlice(ctx context.Context, w http.ResponseWriter, r *http.Request, req *sliceRequest) bool {
	c := s.cluster
	if c == nil {
		return false
	}
	key := slicecache.KeyOf(req.Source)
	owner := c.ring.Owner(key[:])
	if owner == c.self || r.Header.Get(routedFromHeader) != "" || !c.peers.Up(owner) {
		c.localServes.Add(1)
		return false
	}
	if s.proxySlice(ctx, w, r, req, owner) {
		return true
	}
	// The hop failed mid-flight: the owner was just marked down; serve
	// degraded rather than erroring.
	c.localServes.Add(1)
	return false
}

// proxySlice forwards the request to owner, streaming the response
// back. The forwarded request carries the parsed body re-encoded as
// JSON (the original body is already consumed), the routed-from hop
// marker, and the conditional/failpoint headers. It reports whether a
// response was relayed; a transport failure marks the owner down and
// returns false so the caller serves locally.
func (s *server) proxySlice(ctx context.Context, w http.ResponseWriter, r *http.Request, req *sliceRequest, owner string) bool {
	c := s.cluster
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	u := "http://" + owner + "/slice"
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(routedFromHeader, c.self)
	for _, h := range []string{"If-None-Match", "X-Sliced-Fail"} {
		if v := r.Header.Get(h); v != "" {
			preq.Header.Set(h, v)
		}
	}
	resp, err := c.client.Do(preq)
	if err != nil {
		c.proxyErrors.Add(1)
		c.peers.MarkDown(owner)
		return false
	}
	defer resp.Body.Close()
	c.proxied.Add(1)
	return s.relayProxy(w, resp, owner)
}

// relayProxy copies the owner's response onto our writer with the
// proxied-route headers. The owner's verdicts ride through: X-Cache
// says which tier it hit, X-Sliced-Node names the node that actually
// served (never two hops away — the routed-from marker forbids a
// second proxy).
func (s *server) relayProxy(w http.ResponseWriter, resp *http.Response, owner string) bool {
	h := w.Header()
	for _, name := range []string{"Content-Type", "X-Cache", "X-Sliced-Node", "Retry-After", "ETag"} {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("X-Sliced-Route", obs.RouteProxied)
	h.Set("X-Sliced-Peer", owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// serveResult answers a /slice request from the result tiers —
// memory, disk, then peer fill — reporting whether a response was
// written. A false return means every tier missed and the caller must
// compute; rkey is where the computed record should then be stored.
// It requires a result tier (s.results non-nil).
func (s *server) serveResult(ctx context.Context, w http.ResponseWriter, r *http.Request, req *sliceRequest, rkey slicecache.ResultKey, id uint64, start time.Time) bool {
	if data, src := s.results.Get(rkey); src != slicecache.ResultMiss {
		tier := "result"
		if src == slicecache.ResultDisk {
			tier = "disk"
		}
		if s.writeRecord(w, r, data, tier, "", id, start) {
			return true
		}
		// The record failed to decode (should be impossible past the
		// disk CRC); recompute and overwrite it.
	}
	c := s.cluster
	if c == nil {
		return false
	}
	// Peer fill: ask the ring-adjacent nodes (the previous/next owners
	// of this program's key) that are currently up.
	key := slicecache.KeyOf(req.Source)
	var candidates []string
	for _, cand := range c.ring.Candidates(key[:], fillCandidates+1, c.self) {
		if len(candidates) < fillCandidates && c.peers.Up(cand) {
			candidates = append(candidates, cand)
		}
	}
	if len(candidates) == 0 {
		return false
	}
	var hdr http.Header
	if s.cfg.Failpoints {
		if v := r.Header.Get("X-Sliced-Fail"); v != "" {
			hdr = http.Header{"X-Sliced-Fail": []string{v}}
		}
	}
	res, err := c.filler.Fill(ctx, rkey.Hex(), candidates, hdr)
	if err != nil {
		return false // fills are best-effort; compute locally
	}
	if !s.writeRecord(w, r, res.Data, obs.RoutePeerFill, res.Peer, id, start) {
		return false
	}
	c.fillServes.Add(1)
	s.results.Put(rkey, res.Data)
	return true
}

// writeRecord decodes a canonical result record, stamps this
// request's delivery metadata (ID and wall-clock duration — the two
// fields deliberately zeroed in storage), and writes it. It reports
// false, writing nothing, if the record does not decode.
func (s *server) writeRecord(w http.ResponseWriter, r *http.Request, data []byte, tier, peer string, id uint64, start time.Time) bool {
	var resp sliceResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return false
	}
	resp.Request = id
	resp.DurationNS = time.Since(start).Nanoseconds()
	w.Header().Set("X-Cache", tier)
	if tier == obs.RoutePeerFill {
		w.Header().Set("X-Sliced-Route", obs.RoutePeerFill)
		w.Header().Set("X-Sliced-Peer", peer)
	}
	ri := reqInfoFrom(r)
	ri.setSliceLines(len(resp.Lines))
	writeResponse(w, http.StatusOK, &resp)
	return true
}

// storeResult serializes a computed response into its canonical
// record — Request and DurationNS zeroed, so the record is a pure
// function of the request tuple — and writes it through the result
// tiers for peers and restarts to find.
func (s *server) storeResult(rkey slicecache.ResultKey, resp *sliceResponse) {
	if s.results == nil {
		return
	}
	rec := *resp
	rec.Request = 0
	rec.DurationNS = 0
	data, err := json.Marshal(&rec)
	if err != nil {
		return
	}
	s.results.Put(rkey, data)
}

// handleFill (GET /internal/fill?key=) serves one serialized result
// record to a peer, from cache state only: it never computes, never
// proxies, and never fills in turn, which is what makes a fill
// structurally one hop. The key parameter is validated strictly.
func (s *server) handleFill(w http.ResponseWriter, r *http.Request) {
	if s.results == nil {
		s.fail(w, r, http.StatusNotFound, "not_found", "result cache not enabled (-peers or -disk-dir)")
		return
	}
	v := r.URL.Query().Get("key")
	raw, err := hex.DecodeString(v)
	if err != nil || len(raw) != len(slicecache.ResultKey{}) {
		s.fail(w, r, http.StatusUnprocessableEntity, "invalid_parameter",
			"parameter key must be %d hex characters, got %q", 2*len(slicecache.ResultKey{}), v)
		return
	}
	var key slicecache.ResultKey
	copy(key[:], raw)
	data, src := s.results.Get(key)
	if src == slicecache.ResultMiss {
		s.fail(w, r, http.StatusNotFound, "not_found", "no record for key %s", v)
		return
	}
	// The fill-corrupt failpoint serves a torn record so the e2e tests
	// can prove the requesting side survives corruption.
	if s.cfg.Failpoints && r.Header.Get("X-Sliced-Fail") == "fill-corrupt" {
		data = data[:len(data)/2]
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", map[slicecache.ResultSource]string{
		slicecache.ResultMemory: "result",
		slicecache.ResultDisk:   "disk",
	}[src])
	w.Write(data)
}

// handleClusterDebug (GET /debug/cluster) reports the routing
// fabric's live state: self, ring membership, per-peer health, and
// the result/disk tier ledgers. Without -peers it reports what is
// enabled ({"enabled":false} when neither clustering nor the disk
// tier is on).
func (s *server) handleClusterDebug(w http.ResponseWriter, r *http.Request) {
	type tierStats struct {
		Result *slicecache.ResultStats `json:"result,omitempty"`
		Disk   *disk.Stats             `json:"disk,omitempty"`
	}
	out := struct {
		Enabled bool                `json:"enabled"`
		Self    string              `json:"self,omitempty"`
		Vnodes  int                 `json:"vnodes,omitempty"`
		Nodes   []string            `json:"nodes,omitempty"`
		Peers   []cluster.PeerState `json:"peers,omitempty"`
		Tiers   tierStats           `json:"tiers"`
	}{}
	if s.results != nil {
		st := s.results.ResultStats()
		out.Tiers.Result = &st
		out.Enabled = true
	}
	if s.disk != nil {
		st := s.disk.Stats()
		out.Tiers.Disk = &st
	}
	if c := s.cluster; c != nil {
		out.Enabled = true
		out.Self = c.self
		out.Vnodes = cluster.Vnodes
		out.Nodes = c.ring.Nodes()
		out.Peers = c.peers.States()
	}
	writeJSON(w, http.StatusOK, out)
}
