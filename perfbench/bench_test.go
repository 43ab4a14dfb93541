package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// slicedBin and perfbenchBin are the daemon and benchmark binaries
// TestMain builds for the tests.
var slicedBin, perfbenchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	slicedBin = filepath.Join(dir, "sliced")
	perfbenchBin = filepath.Join(dir, "perfbench")
	build := exec.Command("go", "build", "-o", dir+"/", ".", "jumpslice/cmd/sliced")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		panic("building the binaries: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload,
		seed:     7,
		seconds:  1,
		trace:    trace,
		sliced:   slicedBin,
		workdir:  t.TempDir(),
		self:     perfbenchBin,
	}
}

// TestSmoke runs a tiny timed and traced run of every workload: the
// oracle passes with no failed operation, and the result carries
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/timed", true: "/traced"}[trace], func(t *testing.T) {
				cfg := smokeConfig(t, name, trace)
				sup := newSupervisor(cfg.workdir)
				res, err := runGuarded(cfg, sup)
				if serr := sup.shutdown(); serr != nil {
					t.Errorf("shutdown: %v", serr)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if trace && res.Metrics["oracle.slices_checked"].Value == 0 {
					t.Error("traced run checked no slice with the interpreter")
				}
				if !trace && res.Metrics["success_pct"].Value != 100 {
					t.Errorf("success_pct = %v", res.Metrics["success_pct"].Value)
				}
			})
		}
	}
}

// TestNegativeControlRejected: the oracle rejects the Conventional
// slice of Figure 3, through the figure check and the interpreter,
// without counting that rejection as a failure of the run.
func TestNegativeControlRejected(t *testing.T) {
	o := &oracle{}
	o.negativeControl()
	if !o.negativeRejected {
		t.Fatal("the Conventional slice of Figure 3 was not rejected")
	}
	if o.failed != 0 {
		t.Fatalf("negative control counted as a run failure: %v", o.failures)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	var setup float64
	for i, m := range bm.EndToEnd {
		if i >= len(endToEndMetrics) || endToEndMetrics[i] != (metricDef{m.Name, m.Unit}) {
			t.Errorf("end_to_end[%d] = %s %s, harness reports %v", i, m.Name, m.Unit, endToEndMetrics)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range bm.EndToEnd {
		if m.Bound > setup || m.Bound > 0.25 || m.Bound <= 0 {
			t.Errorf("bound of %s is %v; setup_s has %v", m.Name, m.Bound, setup)
		}
	}
	if len(bm.PerLayer) != len(perLayerMetrics) {
		t.Errorf("%d per_layer metrics declared, %d reported", len(bm.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bm.PerLayer {
		if i < len(perLayerMetrics) && perLayerMetrics[i] != (metricDef{m.Name, m.Unit}) {
			t.Errorf("per_layer[%d] = %s %s, harness reports %v", i, m.Name, m.Unit, perLayerMetrics[i])
		}
	}
}

// alive reports whether a process (or process group, for pid < 0)
// still exists.
func alive(pid int) bool { return !errors.Is(syscall.Kill(pid, 0), syscall.ESRCH) }

// TestPanicStopsDaemons: a workload that panics after starting a
// daemon still leaves no process and no temporary directory behind.
func TestPanicStopsDaemons(t *testing.T) {
	cfg := smokeConfig(t, "panics", false)
	var pid int
	workloads["panics"] = func(cfg *config, sup *supervisor) (*outcome, error) {
		dir, err := sup.tempDir()
		if err != nil {
			return nil, err
		}
		d, err := sup.startDaemon(cfg.sliced, dir, newHTTPClient())
		if err != nil {
			return nil, err
		}
		pid = d.pid
		panic("injected")
	}
	defer delete(workloads, "panics")
	sup := newSupervisor(cfg.workdir)
	if _, err := runGuarded(cfg, sup); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("runGuarded error = %v, want the panic", err)
	}
	if err := sup.shutdown(); err != nil {
		t.Fatal(err)
	}
	if pid == 0 || alive(-pid) {
		t.Fatalf("daemon %d survived the panic", pid)
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.workdir, "perfbench-run-*")); len(left) != 0 {
		t.Fatalf("temporary directories left: %v", left)
	}
}

// TestInterruptStopsDaemons runs the benchmark binary, interrupts it
// once its daemon is up, and checks that the daemon is gone.
func TestInterruptStopsDaemons(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(perfbenchBin, "-workload", "serve-hot", "-seconds", "60", "-sliced", slicedBin, "-workdir", dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pidRE := regexp.MustCompile(`sliced pid=(\d+)`)
	pids := make(chan int, 8)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := pidRE.FindStringSubmatch(sc.Text()); m != nil {
				pid, _ := strconv.Atoi(m[1])
				pids <- pid
			}
		}
		close(pids)
	}()
	var seen []int
	select {
	case pid, ok := <-pids:
		if !ok {
			t.Fatal("benchmark exited before starting a daemon")
		}
		seen = append(seen, pid)
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		t.Fatal("no daemon started")
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	for pid := range pids {
		seen = append(seen, pid)
	}
	err = cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 128+int(syscall.SIGINT) {
		t.Fatalf("exit: %v, want status %d", err, 128+int(syscall.SIGINT))
	}
	for _, pid := range seen {
		if alive(-pid) {
			t.Errorf("daemon %d is still alive", pid)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "perfbench-run-*")); len(left) != 0 {
		t.Errorf("temporary directories left: %v", left)
	}
}
