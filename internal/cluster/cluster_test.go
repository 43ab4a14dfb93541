package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jumpslice/internal/obs"
)

// addrOf strips the scheme from an httptest server URL: peers are
// addressed host:port, like the daemon's -peers flag.
func addrOf(ts *httptest.Server) string {
	return strings.TrimPrefix(ts.URL, "http://")
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A peer starts down, is marked up by its first successful probe,
// down again when it stops answering, and the transitions are
// counted.
func TestPeersProbeLifecycle(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	p := NewPeers("self:1", []string{"self:1", addrOf(ts)}, ProbeOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  200 * time.Millisecond,
		Recorder: reg,
	})
	if p.Up(addrOf(ts)) {
		t.Fatal("peer must start down")
	}
	if !p.Up("self:1") {
		t.Fatal("self is always up")
	}
	p.Start()
	defer p.Close()

	waitFor(t, "peer up", func() bool { return p.Up(addrOf(ts)) })
	if got := p.UpCount(); got != 1 {
		t.Fatalf("UpCount = %d", got)
	}

	healthy.Store(false)
	waitFor(t, "peer down", func() bool { return !p.Up(addrOf(ts)) })

	healthy.Store(true)
	waitFor(t, "peer back up", func() bool { return p.Up(addrOf(ts)) })

	states := p.States()
	if len(states) != 2 || !states[0].Self || states[1].Addr != addrOf(ts) {
		t.Fatalf("states = %+v", states)
	}
	if v := reg.Counter("cluster.probe_transitions").Value(); v < 3 {
		t.Fatalf("probe_transitions = %d, want >= 3", v)
	}
	if v := reg.Gauge("cluster.peers_up").Value(); v != 1 {
		t.Fatalf("peers_up gauge = %d", v)
	}
}

// A down peer's probes back off: over a window many base intervals
// long, a dead address must be probed far fewer times than an alive
// one would be.
func TestPeersDownBackoff(t *testing.T) {
	var probes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	p := NewPeers("self:1", []string{addrOf(ts)}, ProbeOptions{
		Interval:   5 * time.Millisecond,
		Timeout:    100 * time.Millisecond,
		MaxBackoff: 500 * time.Millisecond,
	})
	p.Start()
	time.Sleep(250 * time.Millisecond)
	p.Close()
	// 250ms / 5ms = 50 sweeps; with exponential backoff the dead peer
	// sees only the first few.
	if n := probes.Load(); n > 12 {
		t.Fatalf("dead peer probed %d times in 50 sweeps; backoff not applied", n)
	}
}

// MarkDown reacts to a data-path failure immediately, without waiting
// for the next sweep.
func TestPeersMarkDown(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	p := NewPeers("self:1", []string{addrOf(ts)}, ProbeOptions{Interval: time.Hour})
	p.Start()
	defer p.Close()
	waitFor(t, "peer up", func() bool { return p.Up(addrOf(ts)) })
	p.MarkDown(addrOf(ts))
	if p.Up(addrOf(ts)) {
		t.Fatal("MarkDown did not take effect")
	}
}

// A nil registry is a valid, disabled metrics sink for the membership
// table: probing and MarkDown work and record nothing.
func TestNilRegistryIsDisabled(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer healthy.Close()
	var reg *obs.Registry
	p := NewPeers("self:1", []string{addrOf(healthy)}, ProbeOptions{Interval: time.Hour, Recorder: reg})
	p.Start()
	defer p.Close()
	waitFor(t, "peer up", func() bool { return p.Up(addrOf(healthy)) })
	p.MarkDown(addrOf(healthy))
	if p.Up(addrOf(healthy)) {
		t.Fatal("MarkDown did not take effect")
	}
}
