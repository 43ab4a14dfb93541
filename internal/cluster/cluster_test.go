package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// fillServer is a stub peer: it serves records from a map under
// FillPath and can be told to answer corruptly.
func fillServer(t *testing.T, records map[string][]byte, hits *atomic.Int64, corrupt *atomic.Bool) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != FillPath {
			http.NotFound(w, r)
			return
		}
		if r.Header.Get(HopHeader) != "1" {
			t.Errorf("fill request missing %s header", HopHeader)
		}
		if hits != nil {
			hits.Add(1)
		}
		data, ok := records[r.URL.Query().Get("key")]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		if corrupt != nil && corrupt.Load() {
			data = data[:len(data)/2]
		}
		w.Write(data)
	}))
}

func TestFillerHitMissAndCandidateOrder(t *testing.T) {
	recA := map[string][]byte{"k1": []byte(`{"v":"from-a"}`)}
	var hitsA, hitsB atomic.Int64
	a := fillServer(t, recA, &hitsA, nil)
	defer a.Close()
	b := fillServer(t, nil, &hitsB, nil)
	defer b.Close()

	reg := obs.NewRegistry()
	f := NewFiller(FillOptions{Recorder: reg})

	// B (empty) is tried first and misses; A serves.
	res, err := f.Fill(context.Background(), "k1", []string{addrOf(b), addrOf(a)}, nil)
	if err != nil || res == nil {
		t.Fatalf("fill failed: %v", err)
	}
	if res.Peer != addrOf(a) || string(res.Data) != `{"v":"from-a"}` {
		t.Fatalf("got %q from %s", res.Data, res.Peer)
	}
	if hitsB.Load() != 1 || hitsA.Load() != 1 {
		t.Fatalf("candidate order not respected: A=%d B=%d", hitsA.Load(), hitsB.Load())
	}
	if reg.Counter("cluster.fill_hits").Value() != 1 || reg.Counter("cluster.fill_misses").Value() != 1 {
		t.Fatal("fill hit/miss accounting wrong")
	}

	// A key nobody holds exhausts the walk.
	if _, err := f.Fill(context.Background(), "nope", []string{addrOf(a), addrOf(b)}, nil); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("want ErrNotFilled, got %v", err)
	}
	if _, err := f.Fill(context.Background(), "k1", nil, nil); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("no candidates: want ErrNotFilled, got %v", err)
	}
}

// A record failing validation counts as corrupt and the walk moves to
// the next candidate; a healthy replica rescues the fill.
func TestFillerCorruptFallsThrough(t *testing.T) {
	rec := map[string][]byte{"k1": []byte(`{"v":"good"}`)}
	var corruptA atomic.Bool
	corruptA.Store(true)
	a := fillServer(t, rec, nil, &corruptA)
	defer a.Close()
	b := fillServer(t, rec, nil, nil)
	defer b.Close()

	reg := obs.NewRegistry()
	f := NewFiller(FillOptions{
		Recorder: reg,
		Validate: func(data []byte) error {
			if string(data) != `{"v":"good"}` {
				return errors.New("bad record")
			}
			return nil
		},
	})
	res, err := f.Fill(context.Background(), "k1", []string{addrOf(a), addrOf(b)}, nil)
	if err != nil {
		t.Fatalf("fill failed: %v", err)
	}
	if res.Peer != addrOf(b) {
		t.Fatalf("served by %s, want the healthy replica", res.Peer)
	}
	if reg.Counter("cluster.fill_corrupt").Value() != 1 {
		t.Fatal("corrupt record not counted")
	}
}

// A transport failure marks the peer down in the attached peer table
// and continues the walk.
func TestFillerTransportErrorMarksDown(t *testing.T) {
	dead := "127.0.0.1:1" // nothing listens here
	rec := map[string][]byte{"k1": []byte(`ok`)}
	b := fillServer(t, rec, nil, nil)
	defer b.Close()

	reg := obs.NewRegistry()
	peers := NewPeers("self:1", []string{dead, addrOf(b)}, ProbeOptions{Interval: time.Hour})
	f := NewFiller(FillOptions{Recorder: reg, Peers: peers, Timeout: 300 * time.Millisecond})
	res, err := f.Fill(context.Background(), "k1", []string{dead, addrOf(b)}, nil)
	if err != nil || res.Peer != addrOf(b) {
		t.Fatalf("fill = %v, %v", res, err)
	}
	if reg.Counter("cluster.fill_errors").Value() != 1 {
		t.Fatal("transport error not counted")
	}
	if peers.Up(dead) {
		t.Fatal("dead candidate not marked down")
	}
}

// Concurrent fills of one key coalesce onto a single candidate walk.
func TestFillerSingleflight(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-release
		fmt.Fprint(w, "rec")
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	f := NewFiller(FillOptions{Recorder: reg, Timeout: 5 * time.Second})
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := f.Fill(context.Background(), "hot", []string{addrOf(ts)}, nil)
			if err == nil && string(res.Data) != "rec" {
				err = fmt.Errorf("bad data %q", res.Data)
			}
			errs[i] = err
		}(i)
	}
	waitFor(t, "leader to reach the peer", func() bool { return hits.Load() == 1 })
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if hits.Load() != 1 {
		t.Fatalf("peer hit %d times for one key", hits.Load())
	}
	if v := reg.Counter("cluster.fill_coalesced").Value(); v != n-1 {
		t.Fatalf("fill_coalesced = %d, want %d", v, n-1)
	}
}

// A waiter whose context dies detaches without killing the shared
// walk; the surviving waiters still get the record.
func TestFillerWaiterCancellation(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, "rec")
	}))
	defer ts.Close()

	f := NewFiller(FillOptions{Timeout: 5 * time.Second})
	done := make(chan error, 1)
	go func() {
		res, err := f.Fill(context.Background(), "k", []string{addrOf(ts)}, nil)
		if err == nil && string(res.Data) != "rec" {
			err = fmt.Errorf("bad data %q", res.Data)
		}
		done <- err
	}()
	// Give the leader time to start, then join and cancel.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Fill(ctx, "k", []string{addrOf(ts)}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
}

// A nil registry is a valid, disabled metrics sink for the membership
// table and the filler: probing and filling work and record nothing.
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

	ts := fillServer(t, map[string][]byte{"k1": []byte(`{"v":"x"}`)}, nil, nil)
	defer ts.Close()
	f := NewFiller(FillOptions{Recorder: reg})
	res, err := f.Fill(context.Background(), "k1", []string{addrOf(ts)}, nil)
	if err != nil || string(res.Data) != `{"v":"x"}` {
		t.Fatalf("fill with nil registry: %v", err)
	}
}
