package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// supervisor owns every child process and temporary directory of a
// run. shutdown stops them all on every exit path — normal return,
// error, panic and SIGINT/SIGTERM — and then asserts that no child is
// left alive.
type supervisor struct {
	workdir string

	mu      sync.Mutex
	closing bool
	daemons []*daemon
	dirs    []string

	stopOnce sync.Once
	stopErr  error
}

func newSupervisor(workdir string) *supervisor { return &supervisor{workdir: workdir} }

// tempDir makes a temporary directory that shutdown removes.
func (s *supervisor) tempDir() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return "", errors.New("shutting down")
	}
	if err := os.MkdirAll(s.workdir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(s.workdir, "perfbench-run-")
	if err != nil {
		return "", err
	}
	s.dirs = append(s.dirs, dir)
	return dir, nil
}

// daemon is one running sliced process.
type daemon struct {
	pid  int
	addr string // host:port it listens on
	log  string // its stderr (the access log)
	done chan struct{}
}

// stopGrace is how long a daemon may drain after SIGTERM before it is
// killed.
const stopGrace = 5 * time.Second

var listeningRE = regexp.MustCompile(`listening on http://(\S+)`)

// startDaemon execs sliced on an ephemeral loopback port in its own
// process group, with stderr going to a file in dir, and returns once
// it answers /healthz.
func (s *supervisor) startDaemon(bin, dir string, client *http.Client) (*daemon, error) {
	logf, err := os.CreateTemp(dir, "sliced-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Setpgid: true,
		// Backstop for a harness killed by SIGKILL, which no handler
		// sees. The parent-death signal follows the forking thread, so
		// that thread is pinned while forking.
		Pdeathsig: syscall.SIGKILL,
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, errors.New("shutting down")
	}
	runtime.LockOSThread()
	err = cmd.Start()
	runtime.UnlockOSThread()
	if err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("starting sliced: %w", err)
	}
	d := &daemon{pid: cmd.Process.Pid, log: logf.Name(), done: make(chan struct{})}
	s.daemons = append(s.daemons, d)
	s.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
		close(d.done)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for d.addr == "" {
		data, _ := os.ReadFile(d.log)
		if m := listeningRE.FindSubmatch(data); m != nil {
			d.addr = string(m[1])
			break
		}
		if err := d.waitStep(deadline); err != nil {
			return nil, err
		}
	}
	for {
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				fmt.Fprintf(os.Stderr, "perfbench: sliced pid=%d addr=%s\n", d.pid, d.addr)
				return d, nil
			}
		}
		if err := d.waitStep(deadline); err != nil {
			return nil, err
		}
	}
}

// waitStep sleeps briefly, failing if the daemon exited or the
// deadline passed.
func (d *daemon) waitStep(deadline time.Time) error {
	select {
	case <-d.done:
		return fmt.Errorf("sliced exited during start-up: %s", d.logTail())
	case <-time.After(2 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("sliced not healthy in time: %s", d.logTail())
	}
	return nil
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log)
	if len(data) > 400 {
		data = data[len(data)-400:]
	}
	return strings.TrimSpace(string(data))
}

// stop sends SIGTERM to the daemon's process group, SIGKILL after the
// grace period, and waits for the process to be reaped.
func (d *daemon) stop() {
	_ = syscall.Kill(-d.pid, syscall.SIGTERM) // ESRCH: already gone
	select {
	case <-d.done:
	case <-time.After(stopGrace):
		_ = syscall.Kill(-d.pid, syscall.SIGKILL)
		<-d.done
	}
}

// shutdown stops every daemon, verifies that none of their process
// groups has a member left, and removes the temporary directories. It
// may be called more than once and from several goroutines; every call
// returns after the first one has finished.
func (s *supervisor) shutdown() error {
	s.stopOnce.Do(func() { s.stopErr = s.stopAll() })
	return s.stopErr
}

func (s *supervisor) stopAll() error {
	s.mu.Lock()
	s.closing = true
	ds, dirs := s.daemons, s.dirs
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
	var errs []error
	for _, d := range ds {
		if err := syscall.Kill(-d.pid, 0); !errors.Is(err, syscall.ESRCH) {
			errs = append(errs, fmt.Errorf("process group %d still has a live member", d.pid))
		}
	}
	for _, dir := range dirs {
		if err := os.RemoveAll(dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// procCPU returns a process's user+system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed stat line")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// procPeakRSSKB returns a process's peak resident set size (VmHWM).
func procPeakRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in status")
}

// selfCPU returns this process's CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets this process's peak resident set size (VmHWM) to
// its current resident size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
