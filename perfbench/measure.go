package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The timed phase runs the fixed operation sequence in chunks. The
// reference machine is a virtual machine whose CPUs are shared with
// other tenants: for stretches of seconds to minutes the host
// deschedules it ("steal" time in /proc/stat) or runs other work beside
// it, and every time measured then inflates by tens of percent. Three
// steps keep the numbers about the program rather than the neighbours:
// a chunk that lost more than stealLimit of the machine's CPU time to
// steal is measured again after the pass, round after round, until it
// is clean or the retries have taken retryBudget times the first pass;
// and of a chunk's attempts the fastest counts (noise only adds time).
// Every attempt sends exactly the chunk's operations, so this changes
// when the traffic is measured, never what it is. Slower drifts of the
// machine's speed, over minutes, are beyond a single run.
const (
	chunks      = 10
	stealLimit  = 0.03
	retryBudget = 1
)

// chunkHooks are one workload's chunk steps. before and after run
// untimed around every attempt (opening and closing sessions, say).
// run (and after) put operations [lo, hi)'s results into the
// workload's scratch results; keep makes the latest attempt's results
// the counted ones.
type chunkHooks struct {
	before, after func(lo, hi int) error
	run           func(lo, hi int) error
	keep          func(lo, hi int)
	// cpu reads the CPU time of the system under test.
	cpu func() (time.Duration, error)
}

// attempt is one measured execution of a chunk.
type attempt struct {
	wall, cpu time.Duration
	steal     float64 // stolen share of the machine's CPU time
}

// pass is a measured pass over the operation sequence.
type pass struct {
	wall, cpu time.Duration // summed over the counted attempts
	retries   int
	steal     float64 // stolen share of CPU time in the counted attempts
}

// runPass runs operations [0, n) in chunks whose boundaries are
// multiples of align.
func runPass(n, align int, h chunkHooks) (*pass, error) {
	counted := make([]*attempt, chunks)
	measure := func(c int) error {
		lo, hi := chunkBounds(n, align, c)
		if lo == hi {
			counted[c] = &attempt{}
			return nil
		}
		if h.before != nil {
			if err := h.before(lo, hi); err != nil {
				return err
			}
		}
		cpu0, err := h.cpu()
		if err != nil {
			return err
		}
		st0 := stealTicks()
		t0 := time.Now()
		if err := h.run(lo, hi); err != nil {
			return err
		}
		wall := time.Since(t0)
		st := float64(stealTicks()-st0) / ticksPerSecond / (float64(runtime.NumCPU()) * max(wall.Seconds(), 1e-3))
		cpu1, err := h.cpu()
		if err != nil {
			return err
		}
		if h.after != nil {
			if err := h.after(lo, hi); err != nil {
				return err
			}
		}
		a := &attempt{wall: wall, cpu: cpu1 - cpu0, steal: st}
		if counted[c] == nil || a.wall < counted[c].wall {
			counted[c] = a
			h.keep(lo, hi)
		}
		return nil
	}
	p := &pass{}
	t0 := time.Now()
	for c := 0; c < chunks; c++ {
		if err := measure(c); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(retryBudget * time.Since(t0))
	for retried := true; retried && time.Now().Before(deadline); {
		retried = false
		for c := 0; c < chunks && time.Now().Before(deadline); c++ {
			if counted[c].steal > stealLimit {
				if err := measure(c); err != nil {
					return nil, err
				}
				p.retries++
				retried = true
			}
		}
	}
	var stolen float64
	for _, a := range counted {
		p.wall += a.wall
		p.cpu += a.cpu
		stolen += a.steal * a.wall.Seconds()
	}
	p.steal = stolen / p.wall.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: pass of %d operations: %.2fs, %d chunk retries, %.1f%% CPU stolen\n",
		n, p.wall.Seconds(), p.retries, 100*p.steal)
	return p, nil
}

// chunkBounds returns chunk c of [0, n) with boundaries rounded to
// multiples of align.
func chunkBounds(n, align, c int) (lo, hi int) {
	rows := n / align
	return rows * c / chunks * align, rows * (c + 1) / chunks * align
}

const ticksPerSecond = 100 // USER_HZ on Linux

// stealTicks returns the machine's stolen CPU time so far, in ticks
// (the eighth field of the cpu line of /proc/stat; 0 where absent).
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
