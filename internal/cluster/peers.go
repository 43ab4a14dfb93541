package cluster

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"jumpslice/internal/obs"
)

// ProbeOptions configures the peer health prober.
type ProbeOptions struct {
	// Interval is the base probe cadence per peer (<= 0 means 1s).
	Interval time.Duration
	// Timeout bounds one probe request (<= 0 means 500ms).
	Timeout time.Duration
	// MaxBackoff caps the probe backoff of a down peer (<= 0 means
	// 16× Interval).
	MaxBackoff time.Duration
	// Path is the health endpoint probed on each peer (defaults to
	// /healthz, the daemon's liveness probe).
	Path string
	// Client overrides the HTTP client (tests); nil builds one with
	// the probe timeout.
	Client *http.Client
	// Recorder receives cluster.peers / cluster.peers_up gauges and
	// the cluster.probe_transitions counter.
	Recorder *obs.Registry
}

// PeerState is one peer's health as /debug/cluster reports it.
type PeerState struct {
	Addr     string `json:"addr"`
	Up       bool   `json:"up"`
	Self     bool   `json:"self,omitempty"`
	Failures int    `json:"failures,omitempty"`
	// LastProbeNS is the wall-clock time of the last completed probe
	// (0 before the first one).
	LastProbeNS int64 `json:"last_probe_ns,omitempty"`
}

// peer is one remote node's health record.
type peer struct {
	addr string

	mu        sync.Mutex
	up        bool
	failures  int
	lastProbe time.Time
	nextProbe time.Time // down peers back off; zero means "probe now"
}

// Peers tracks the health of every other node in the fleet. A peer
// starts down and is marked up by its first successful probe, so a
// node that boots before its fleet serves locally until the fleet
// arrives. All methods are safe for concurrent use.
type Peers struct {
	self   string
	peers  map[string]*peer
	order  []string // sorted addrs, for deterministic snapshots
	opts   ProbeOptions
	client *http.Client

	stop chan struct{}
	wg   sync.WaitGroup

	peersUp     *obs.Gauge
	transitions *obs.Counter
}

// NewPeers builds the health table for the fleet: addrs is the full
// static -peers list (self included; it is skipped — a node is always
// up to itself).
func NewPeers(self string, addrs []string, opts ProbeOptions) *Peers {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 500 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 16 * opts.Interval
	}
	if opts.Path == "" {
		opts.Path = "/healthz"
	}
	p := &Peers{
		self:   self,
		peers:  map[string]*peer{},
		opts:   opts,
		client: opts.Client,
		stop:   make(chan struct{}),
	}
	if p.client == nil {
		p.client = &http.Client{Timeout: opts.Timeout}
	}
	for _, a := range addrs {
		if a == "" || a == self || p.peers[a] != nil {
			continue
		}
		p.peers[a] = &peer{addr: a}
		p.order = append(p.order, a)
	}
	sort.Strings(p.order)
	rec := opts.Recorder
	rec.Gauge("cluster.peers").Set(int64(len(p.order)))
	p.peersUp = rec.Gauge("cluster.peers_up")
	p.transitions = rec.Counter("cluster.probe_transitions")
	return p
}

// Start launches the probe loop. Stop it with Close.
func (p *Peers) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		// First sweep immediately: a booting node should discover its
		// live fleet within one probe timeout, not one interval.
		p.sweep()
		t := time.NewTicker(p.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sweep()
			}
		}
	}()
}

// Close stops the probe loop and waits for it.
func (p *Peers) Close() {
	close(p.stop)
	p.wg.Wait()
}

// sweep probes every peer that is due. Up peers are probed each
// sweep; down peers back off exponentially (2^failures × Interval,
// capped) so a long-dead node costs a trickle, not a timeout per
// sweep.
func (p *Peers) sweep() {
	now := time.Now()
	due := make([]*peer, 0, len(p.order))
	for _, a := range p.order {
		pr := p.peers[a]
		pr.mu.Lock()
		if pr.up || !now.Before(pr.nextProbe) {
			due = append(due, pr)
		}
		pr.mu.Unlock()
	}
	// Probes run concurrently: one stuck peer must not delay marking
	// the rest of the fleet up.
	var wg sync.WaitGroup
	for _, pr := range due {
		wg.Add(1)
		go func(pr *peer) {
			defer wg.Done()
			p.probe(pr)
		}(pr)
	}
	wg.Wait()
}

// probe performs one health check and applies the result.
func (p *Peers) probe(pr *peer) {
	ctx, cancel := context.WithTimeout(context.Background(), p.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+pr.addr+p.opts.Path, nil)
	ok := false
	if err == nil {
		resp, rerr := p.client.Do(req)
		if rerr == nil {
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	p.report(pr, ok)
}

// report applies one probe outcome (also used by MarkDown when a
// routing hop fails — the data path is a probe too).
func (p *Peers) report(pr *peer, ok bool) {
	now := time.Now()
	pr.mu.Lock()
	was := pr.up
	pr.lastProbe = now
	if ok {
		pr.up = true
		pr.failures = 0
		pr.nextProbe = time.Time{}
	} else {
		pr.up = false
		if pr.failures < 30 {
			pr.failures++
		}
		backoff := p.opts.Interval << uint(pr.failures-1)
		if backoff > p.opts.MaxBackoff || backoff <= 0 {
			backoff = p.opts.MaxBackoff
		}
		pr.nextProbe = now.Add(backoff)
	}
	changed := was != pr.up
	up := pr.up
	pr.mu.Unlock()
	if changed {
		p.transitions.Add(1)
		if up {
			p.peersUp.Add(1)
		} else {
			p.peersUp.Add(-1)
		}
	}
}

// Up reports whether addr is a known peer currently marked up. The
// node's own address is always up.
func (p *Peers) Up(addr string) bool {
	if addr == p.self {
		return true
	}
	pr := p.peers[addr]
	if pr == nil {
		return false
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.up
}

// MarkDown records a data-path failure against addr (a failed proxy
// hop), so routing reacts faster than the next probe sweep.
func (p *Peers) MarkDown(addr string) {
	if pr := p.peers[addr]; pr != nil {
		p.report(pr, false)
	}
}

// UpCount returns how many peers are currently up (self excluded).
func (p *Peers) UpCount() int {
	n := 0
	for _, a := range p.order {
		if p.Up(a) {
			n++
		}
	}
	return n
}

// States snapshots every peer's health, self first, then peers in
// address order.
func (p *Peers) States() []PeerState {
	out := make([]PeerState, 0, len(p.order)+1)
	out = append(out, PeerState{Addr: p.self, Up: true, Self: true})
	for _, a := range p.order {
		pr := p.peers[a]
		pr.mu.Lock()
		out = append(out, PeerState{
			Addr:        a,
			Up:          pr.up,
			Failures:    pr.failures,
			LastProbeNS: pr.lastProbe.UnixNano(),
		})
		pr.mu.Unlock()
	}
	return out
}
