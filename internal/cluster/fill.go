package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"jumpslice/internal/obs"
)

// ErrNotFilled reports that no candidate peer could serve the record:
// every candidate missed, errored, or served a corrupt record. The
// caller computes locally — a failed fill is a latency optimization
// that didn't pay off, never a request failure.
var ErrNotFilled = errors.New("cluster: no peer filled the key")

// FillPath is the internal endpoint a fill fetches. The handler
// behind it serves from cache state only — it never computes, never
// proxies, and never fills in turn, so a fill is one hop by
// construction.
const FillPath = "/internal/fill"

// HopHeader marks a fill request on the wire. The serving side uses
// it only for accounting; the loop guard is structural (see FillPath).
const HopHeader = "X-Sliced-Fill"

// FillOptions configures a Filler.
type FillOptions struct {
	// Timeout is the per-hop deadline for one candidate fetch (<= 0
	// means 500ms). A fill that cannot beat a local recompute by a
	// wide margin is not worth waiting for.
	Timeout time.Duration
	// MaxBytes bounds one fill response body (<= 0 means 16 MiB).
	MaxBytes int64
	// Validate, when non-nil, vets a fetched record before it is
	// returned; an error counts as a corrupt record
	// (cluster.fill_corrupt) and the next candidate is tried.
	Validate func([]byte) error
	// Peers, when non-nil, receives MarkDown for candidates whose
	// fetch failed at the transport level.
	Peers *Peers
	// Client overrides the HTTP client (tests); nil builds one.
	Client *http.Client
	// Recorder receives the cluster.fill_* counters.
	Recorder *obs.Registry
}

// FillResult is a successful peer fill: the serialized record and the
// peer that served it.
type FillResult struct {
	Data []byte
	Peer string
}

// fillFlight is one in-progress candidate walk shared by every
// concurrent Fill of its key.
type fillFlight struct {
	done chan struct{}
	res  *FillResult
	err  error
}

// Filler fetches serialized result records from peer caches with
// singleflight suppression: N concurrent local misses of one key cost
// one candidate walk, so a cold-miss storm on a hot key does not
// multiply into a network storm. All methods are safe for concurrent
// use.
type Filler struct {
	opts   FillOptions
	client *http.Client

	mu       sync.Mutex
	inflight map[string]*fillFlight

	fills, hits, misses *obs.Counter
	errsCtr, corrupt    *obs.Counter
	coalesced           *obs.Counter
}

// NewFiller builds a Filler from opts (the zero FillOptions is
// usable).
func NewFiller(opts FillOptions) *Filler {
	if opts.Timeout <= 0 {
		opts.Timeout = 500 * time.Millisecond
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 16 << 20
	}
	f := &Filler{
		opts:     opts,
		client:   opts.Client,
		inflight: map[string]*fillFlight{},
	}
	if f.client == nil {
		f.client = &http.Client{Timeout: opts.Timeout}
	}
	rec := opts.Recorder
	f.fills = rec.Counter("cluster.fills")
	f.hits = rec.Counter("cluster.fill_hits")
	f.misses = rec.Counter("cluster.fill_misses")
	f.errsCtr = rec.Counter("cluster.fill_errors")
	f.corrupt = rec.Counter("cluster.fill_corrupt")
	f.coalesced = rec.Counter("cluster.fill_coalesced")
	return f
}

// Fill tries each candidate in order until one serves a valid record,
// returning ErrNotFilled when none does. Concurrent calls for the
// same key coalesce onto one walk; hdr (may be nil) is copied onto
// the outgoing fetches — the daemon uses it to propagate its
// test-only failpoint header. ctx bounds only this caller's wait; the
// shared walk itself is bounded by the per-hop deadline times the
// candidate count.
func (f *Filler) Fill(ctx context.Context, key string, candidates []string, hdr http.Header) (*FillResult, error) {
	if len(candidates) == 0 {
		return nil, ErrNotFilled
	}
	f.mu.Lock()
	if fl := f.inflight[key]; fl != nil {
		f.mu.Unlock()
		f.coalesced.Add(1)
		return f.wait(ctx, fl)
	}
	fl := &fillFlight{done: make(chan struct{})}
	f.inflight[key] = fl
	f.mu.Unlock()

	f.fills.Add(1)
	go func() {
		fl.res, fl.err = f.walk(key, candidates, hdr)
		f.mu.Lock()
		delete(f.inflight, key)
		f.mu.Unlock()
		close(fl.done)
	}()
	return f.wait(ctx, fl)
}

// wait blocks for the flight or the caller's context, whichever is
// first; a ready result always wins the race.
func (f *Filler) wait(ctx context.Context, fl *fillFlight) (*FillResult, error) {
	var cancelc <-chan struct{}
	if ctx != nil {
		cancelc = ctx.Done()
	}
	select {
	case <-fl.done:
		return fl.res, fl.err
	case <-cancelc:
		select {
		case <-fl.done:
			return fl.res, fl.err
		default:
			return nil, ctx.Err()
		}
	}
}

// walk is the flight leader's candidate loop. It runs detached from
// any one caller's context — the walk's result is shared — and each
// hop gets its own deadline.
func (f *Filler) walk(key string, candidates []string, hdr http.Header) (*FillResult, error) {
	for _, peer := range candidates {
		data, err := f.fetch(peer, key, hdr)
		switch {
		case err == nil:
			if f.opts.Validate != nil {
				if verr := f.opts.Validate(data); verr != nil {
					f.corrupt.Add(1)
					continue
				}
			}
			f.hits.Add(1)
			return &FillResult{Data: data, Peer: peer}, nil
		case errors.Is(err, errFillMiss):
			f.misses.Add(1)
		default:
			f.errsCtr.Add(1)
			f.opts.Peers.markDownIfKnown(peer)
		}
	}
	return nil, ErrNotFilled
}

// errFillMiss distinguishes "the peer answered: not cached" from a
// transport failure — a miss says nothing about the peer's health.
var errFillMiss = errors.New("cluster: peer does not hold the key")

// fetch performs one GET /internal/fill?key= hop.
func (f *Filler) fetch(peer, key string, hdr http.Header) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.Timeout)
	defer cancel()
	u := "http://" + peer + FillPath + "?key=" + url.QueryEscape(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HopHeader, "1")
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return io.ReadAll(io.LimitReader(resp.Body, f.opts.MaxBytes))
	case http.StatusNotFound:
		return nil, errFillMiss
	default:
		return nil, fmt.Errorf("cluster: fill from %s: status %d", peer, resp.StatusCode)
	}
}

// markDownIfKnown is Peers.MarkDown behind a nil guard, so a Filler
// without a peer table (tests) stays valid.
func (p *Peers) markDownIfKnown(addr string) {
	if p != nil {
		p.MarkDown(addr)
	}
}
