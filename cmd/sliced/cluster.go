package main

// The daemon's cluster plane: consistent-hash routing over the
// program's content address, transparent proxying to the ring owner,
// and the disk-backed result tier that makes restarts warm. The
// in-memory result tier under it is every daemon's, clustered or not.
//
// The flow for one /slice request (step 1 only under -peers, the disk
// only under -disk-dir):
//
//  1. The ring (built over the full static -peers list) names the
//     owner of the program's content address. A request landing on
//     the wrong node is proxied to the owner — unless it already
//     carries X-Sliced-Routed-From (one hop max) or the owner is
//     down, in which case the local node serves it degraded.
//  2. The serving node consults its result cache (memory over disk).
//     A hit answers without touching the pipeline (X-Cache: result or
//     disk).
//  3. On a miss the node computes locally. The response is serialized
//     canonically (the per-request fields zeroed) and written through
//     to the result tiers, so the next request for the same tuple and
//     the next restart find it.
//
// The proxy is the only remote path. Every request reaches its
// owner, so no other node holds the owner's records in steady state;
// after a -peers change a moved key costs one cold miss on its new
// owner.
//
// Routing is over the analysis key (the whole program source), not
// the result key (source + criterion + algorithm): all criteria of
// one program land on one node, so its *core.Analysis is built once
// fleet-wide and stays hot there.

import (
	"bytes"
	"context"
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

// probeTimeout is the peer health probe's deadline.
const probeTimeout = 500 * time.Millisecond

// clusterState is the daemon's routing fabric; nil when -peers is
// unset.
type clusterState struct {
	self  string
	ring  *cluster.Ring
	peers *cluster.Peers

	localServes *obs.Counter
	proxied     *obs.Counter
	proxyErrors *obs.Counter
}

// openCluster brings up the persistence and routing tiers from the
// config: the disk store under the result tier (when -disk-dir is
// set), and the ring and peer prober (when -peers is set). It must run
// before the first request; serveOn does, and cluster tests call it
// directly.
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
		// No request has touched newServer's memory tier yet, so the
		// tier is rebuilt over the store rather than attached to it.
		s.results = s.newResults()
		s.logger.Printf("disk result tier on %s (budget %d bytes)", s.cfg.DiskDir, st.Stats().MaxBytes)
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
		self:  s.cfg.Self,
		ring:  cluster.NewRing(nodes),
		peers: peers,

		localServes: s.reg.Counter("cluster.local_serves"),
		proxied:     s.reg.Counter("cluster.proxied"),
		proxyErrors: s.reg.Counter("cluster.proxy_errors"),
	}
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
// back. The forwarded request carries the client's body bytes,
// Content-Type and query string, the routed-from hop marker, and the
// conditional/failpoint headers. The hop is bounded by the request's
// context alone: its deadline when -timeout is set, otherwise the
// client's patience. It reports whether a response was written. A
// hop that fails while the request is still live marks the owner down
// and returns false so the caller serves locally; a hop cut short by
// the request's own cancellation or deadline blames no one and
// answers as the local pipeline would.
func (s *server) proxySlice(ctx context.Context, w http.ResponseWriter, r *http.Request, req *sliceRequest, owner string) bool {
	c := s.cluster
	u := "http://" + owner + "/slice"
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(req.body))
	if err != nil {
		return false
	}
	preq.Header.Set(routedFromHeader, c.self)
	for _, h := range []string{"Content-Type", "If-None-Match", "X-Sliced-Fail"} {
		if v := r.Header.Get(h); v != "" {
			preq.Header.Set(h, v)
		}
	}
	resp, err := http.DefaultClient.Do(preq)
	if err != nil {
		if ctx.Err() != nil {
			setProxied(w, owner)
			s.failErr(w, r, "proxy", ctx.Err())
			return true
		}
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
	setProxied(w, owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// setProxied marks a response as placed on the proxy route to owner.
func setProxied(w http.ResponseWriter, owner string) {
	w.Header().Set("X-Sliced-Route", obs.RouteProxied)
	w.Header().Set("X-Sliced-Peer", owner)
}

// newResults builds the result tier from the config: a memory LRU of
// -result-bytes over the disk store, if one is open.
func (s *server) newResults() *slicecache.ResultCache {
	return slicecache.NewResultCache(slicecache.ResultOptions{
		MaxBytes: s.cfg.ResultBytes,
		Disk:     s.disk,
		Recorder: s.reg,
	})
}

// serveResult answers a /slice request from the result tiers —
// memory, then disk — stamping the stored record with this request's
// delivery metadata (ID and wall-clock duration, the two fields
// zeroed in storage). It reports whether a response was written. A
// false return means both tiers missed, or held a torn record or one
// in an older layout (see isRecord), and the caller must compute; rkey
// is where the computed record should then be stored.
func (s *server) serveResult(w http.ResponseWriter, r *http.Request, rkey slicecache.ResultKey, id uint64, start time.Time) bool {
	data, src := s.results.Get(rkey)
	if src == slicecache.ResultMiss || !isRecord(data) {
		return false
	}
	tier := "result"
	if src == slicecache.ResultDisk {
		tier = "disk"
	}
	w.Header().Set("X-Cache", tier)
	rec := recordBody(data)
	ri := reqInfoFrom(r)
	ri.setStmts(recordStmts(data))
	ri.setSliceLines(recordLines(rec))
	stampRecord(w, rec, id, start)
	return true
}

// storeResult writes a computed response's canonical record — a pure
// function of the request tuple — and its program's statement count
// stmts through the result tiers for later requests and restarts to
// find, and returns the record.
func (s *server) storeResult(rkey slicecache.ResultKey, resp *sliceResponse, stmts int) []byte {
	data := appendRecord(resp, stmts)
	s.results.Put(rkey, data)
	return recordBody(data)
}

// handleClusterDebug (GET /debug/cluster) reports the routing
// fabric's live state: self, ring membership, per-peer health, and
// the result/disk tier ledgers. enabled says whether the cluster plane
// is on: a ring (-peers) or a disk tier (-disk-dir). The memory result
// tier is every daemon's, so its ledger is always reported.
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
	st := s.results.ResultStats()
	out.Tiers.Result = &st
	if s.disk != nil {
		st := s.disk.Stats()
		out.Tiers.Disk = &st
		out.Enabled = true
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
