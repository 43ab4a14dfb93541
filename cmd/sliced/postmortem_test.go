package main

// Tests for the durable spool wiring and post-mortem bundles: the
// golden bundle schema (every artifact present and parseable after a
// real SIGUSR1), the once-per-process panic bundle, and the spool's
// place in the request path (instrument middleware → spool → scan).

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"jumpslice/internal/obs"
	"jumpslice/internal/obs/spool"
)

// bundleArtifacts is the golden schema: every file a complete bundle
// must contain. meta.json is written last, so once it exists the rest
// must too.
var bundleArtifacts = []string{
	"meta.json",
	"build.json",
	"flight.jsonl",
	"requests.jsonl",
	"slo.json",
	"spool.json",
	"goroutines.txt",
}

// findBundle returns the single bundle directory under dir, polling
// for meta.json (the completeness marker) up to the deadline.
func findBundle(t *testing.T, dir string, deadline time.Duration) string {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if !e.IsDir() || !strings.HasPrefix(e.Name(), "bundle-") {
				continue
			}
			bundle := filepath.Join(dir, e.Name())
			if _, err := os.Stat(filepath.Join(bundle, "meta.json")); err == nil {
				return bundle
			}
		}
		if time.Now().After(stop) {
			t.Fatalf("no complete bundle appeared under %s within %v", dir, deadline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPostmortemBundleGoldenSchema drives the real operator path: a
// daemon running with a spool and a post-mortem dir receives SIGUSR1
// and must write a bundle containing every artifact in the golden
// schema, each one parseable, with meta/spool contents consistent
// with the requests actually served.
func TestPostmortemBundleGoldenSchema(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SpoolDir = t.TempDir()
	cfg.PostmortemDir = t.TempDir()
	s := newServer(cfg, io.Discard)
	done := make(chan error, 1)
	go func() { done <- serveOn(ln, s) }()

	base := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Post(base+"/slice?var=positives&line=14", "text/plain", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	bundle := findBundle(t, cfg.PostmortemDir, 5*time.Second)
	if !strings.HasSuffix(bundle, "-sigusr1") {
		t.Errorf("bundle dir %q should carry the -sigusr1 reason suffix", bundle)
	}

	for _, name := range bundleArtifacts {
		info, err := os.Stat(filepath.Join(bundle, name))
		if err != nil {
			t.Errorf("bundle missing artifact %s: %v", name, err)
			continue
		}
		if info.Size() == 0 && name != "flight.jsonl" && name != "requests.jsonl" {
			t.Errorf("bundle artifact %s is empty", name)
		}
	}

	var meta postmortemMeta
	readJSON(t, filepath.Join(bundle, "meta.json"), &meta)
	if meta.Reason != "sigusr1" {
		t.Errorf("meta.reason = %q, want sigusr1", meta.Reason)
	}
	if meta.PID != os.Getpid() {
		t.Errorf("meta.pid = %d, want %d", meta.PID, os.Getpid())
	}
	if meta.RequestsServed == 0 || meta.WideEvents == 0 {
		t.Errorf("meta should count served requests, got served=%d wide=%d",
			meta.RequestsServed, meta.WideEvents)
	}
	if meta.WrittenNS == 0 || meta.Written == "" {
		t.Error("meta timestamps unset")
	}

	var build buildDetails
	readJSON(t, filepath.Join(bundle, "build.json"), &build)
	if build.Revision == "" {
		t.Error("build.json missing revision")
	}

	var details spoolDetails
	readJSON(t, filepath.Join(bundle, "spool.json"), &details)
	if !details.Enabled {
		t.Error("spool.json should report the spool enabled")
	}
	if details.Stats.Dir != cfg.SpoolDir {
		t.Errorf("spool.json dir = %q, want %q", details.Stats.Dir, cfg.SpoolDir)
	}
	if details.Stats.ActiveSegment == "" {
		t.Error("spool.json missing the active segment pointer")
	}
	if details.Stats.Written == 0 {
		t.Error("spool.json reports zero written records after a served request")
	}

	sliceSeen := false
	for _, ev := range readJSONL(t, filepath.Join(bundle, "requests.jsonl")) {
		if ev.Endpoint == "/slice" && ev.Status == http.StatusOK {
			sliceSeen = true
			if len(ev.Phases) == 0 {
				t.Error("bundled /slice wide event lost its phase timings")
			}
		}
	}
	if !sliceSeen {
		t.Error("requests.jsonl does not contain the served /slice request")
	}

	var slo obs.SLOSnapshot
	readJSON(t, filepath.Join(bundle, "slo.json"), &slo)
	dump, err := os.ReadFile(filepath.Join(bundle, "goroutines.txt"))
	if err != nil || !strings.Contains(string(dump), "goroutine") {
		t.Errorf("goroutines.txt should be a goroutine dump (err=%v)", err)
	}

	// The bundle promised the spool was synced: the active segment it
	// points at must hold the served request on disk right now.
	found := false
	err = spool.Scan(cfg.SpoolDir, obs.Filter{Endpoint: "/slice"}, func(ev *obs.WideEvent, _ []byte) error {
		found = true
		return spool.ErrStop
	})
	if err != nil {
		t.Fatalf("scanning spool: %v", err)
	}
	if !found {
		t.Error("spool scan did not find the served /slice request")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveOn returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s of SIGTERM")
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
}

func readJSONL(t *testing.T, path string) []obs.WideEvent {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.WideEvent
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var ev obs.WideEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("%s: bad line %q: %v", filepath.Base(path), line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestPostmortemOnPanicOncePerProcess pins the bundle rate limit: the
// first recovered panic writes a bundle, the second does not.
func TestPostmortemOnPanicOncePerProcess(t *testing.T) {
	cfg := testConfig()
	cfg.PostmortemDir = t.TempDir()
	s, ts := newTestServerConfig(t, cfg)

	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/slice?var=positives&line=14", strings.NewReader(fig5(t)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Sliced-Fail", "panic")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panic failpoint answered %d, want 500", resp.StatusCode)
		}
	}
	if !s.pmPanic.Load() {
		t.Fatal("panic bundle latch never tripped")
	}

	bundles := 0
	entries, err := os.ReadDir(cfg.PostmortemDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "bundle-") {
			bundles++
			if !strings.HasSuffix(e.Name(), "-panic") {
				t.Errorf("bundle %q should carry the -panic reason suffix", e.Name())
			}
		}
	}
	if bundles != 1 {
		t.Errorf("got %d panic bundles, want exactly 1", bundles)
	}
}

// TestWritePostmortemDisabled pins the no-configuration contract: with
// -postmortem-dir unset, writing a bundle is an error, not a surprise
// directory in the working tree.
func TestWritePostmortemDisabled(t *testing.T) {
	s := newServer(testConfig(), io.Discard)
	if _, err := s.writePostmortem("sigusr1"); err == nil {
		t.Fatal("writePostmortem succeeded with no -postmortem-dir")
	}
	// The panic path must also be a no-op, not a latch trip.
	s.postmortemOnPanic()
	if s.pmPanic.Load() {
		t.Error("panic latch tripped with bundles disabled")
	}
}

// TestSpoolWiring pins the request path: events served through the
// instrument middleware land in the on-disk spool, and /debug/spool
// reports the spool's health.
func TestSpoolWiring(t *testing.T) {
	cfg := testConfig()
	cfg.SpoolDir = t.TempDir()
	s, ts := newTestServerConfig(t, cfg)
	if err := s.openSpool(); err != nil {
		t.Fatal(err)
	}
	defer s.spool.Close()

	postSlice(t, ts, "var=positives&line=14", fig5(t))
	resp, err := http.Get(ts.URL + "/debug/spool")
	if err != nil {
		t.Fatal(err)
	}
	var details spoolDetails
	if err := json.NewDecoder(resp.Body).Decode(&details); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !details.Enabled || details.Stats.Enqueued == 0 {
		t.Errorf("/debug/spool = %+v, want enabled with enqueued > 0", details)
	}

	s.spool.Sync()
	var got []obs.WideEvent
	err = spool.Scan(cfg.SpoolDir, obs.Filter{}, func(ev *obs.WideEvent, _ []byte) error {
		got = append(got, *ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both the /slice POST and the /debug/spool GET pass through the
	// instrument middleware; at least the first must be on disk (the
	// GET's event may still be in flight behind the sync barrier).
	sliceSeen := false
	for _, ev := range got {
		if ev.Endpoint == "/slice" {
			sliceSeen = true
			if len(ev.Phases) == 0 {
				t.Error("spooled /slice event lost its phase timings")
			}
			if ev.Outcome != "ok" || ev.Status != http.StatusOK {
				t.Errorf("spooled /slice event = %+v, want ok/200", ev)
			}
		}
	}
	if !sliceSeen {
		t.Errorf("spool holds %d events but not the /slice request", len(got))
	}
}

// TestSpoolDisabledByDefault pins the zero-config behavior: no
// -spool-dir means a nil spool, which the middleware and /debug/spool
// must both tolerate.
func TestSpoolDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.openSpool(); err != nil {
		t.Fatal(err)
	}
	if s.spool != nil {
		t.Fatal("spool opened without -spool-dir")
	}
	postSlice(t, ts, "var=positives&line=14", fig5(t))
	resp, err := http.Get(ts.URL + "/debug/spool")
	if err != nil {
		t.Fatal(err)
	}
	var details spoolDetails
	if err := json.NewDecoder(resp.Body).Decode(&details); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if details.Enabled {
		t.Error("/debug/spool reports enabled with no spool configured")
	}
}
