package main

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// TestClusterDeterministicAndSane pins E9's contract: the table is a
// pure function of (seeds, stmts), and each row's measures live in
// the ranges consistent hashing promises.
func TestClusterDeterministicAndSane(t *testing.T) {
	o := options{ctx: context.Background(), seeds: 60, stmts: 20, parallel: 4}
	rows, err := clusterTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(clusterNodeCounts) {
		t.Fatalf("%d rows, want %d", len(rows), len(clusterNodeCounts))
	}
	for _, r := range rows {
		if r.Keys != o.seeds {
			t.Fatalf("n=%d keys=%d, want %d", r.Nodes, r.Keys, o.seeds)
		}
		if r.Balance < 1 {
			t.Fatalf("n=%d balance %v < 1 (max/mean cannot undercut the mean)", r.Nodes, r.Balance)
		}
		// Uniform ingress misses the owner (n-1)/n of the time, give or
		// take sampling noise.
		want := float64(r.Nodes-1) / float64(r.Nodes)
		if r.RemoteRate < want-0.05 || r.RemoteRate > want+0.05 {
			t.Fatalf("n=%d remote rate %v, want about %v", r.Nodes, r.RemoteRate, want)
		}
		if r.HotShare <= 0 || r.HotShare > 1 {
			t.Fatalf("n=%d hot share %v out of range", r.Nodes, r.HotShare)
		}
		// One node leaving must move roughly its own keys, never the
		// 2/n consistency bound.
		if r.MovedOnLeave > 2/float64(r.Nodes) {
			t.Fatalf("n=%d moved %v > 2/n on one leave", r.Nodes, r.MovedOnLeave)
		}
		if r.MovedOnLeave == 0 {
			t.Fatalf("n=%d no keys moved when a node left", r.Nodes)
		}
	}

	// Determinism across runs and parallelism.
	o.parallel = 1
	again, err := clusterTable(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("row %d differs across parallelism: %+v vs %+v", i, rows[i], again[i])
		}
	}
}

// BenchmarkCorpusParallel measures the corpus sweep serial vs parallel
// (the -parallel flag's worker pool) on the E1 precision table. The
// parallel path produces identical tables, so on a multicore machine
// the speedup is free (on one CPU it shows the pool's overhead is
// negligible).
func BenchmarkCorpusParallel(b *testing.B) {
	workerSet := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerSet = append(workerSet, n)
	}
	sel := map[string]bool{"precision": true}
	for _, workers := range workerSet {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := options{ctx: context.Background(), seeds: 24, stmts: 40, parallel: workers}
			for i := 0; i < b.N; i++ {
				if err := sweepCorpora(o, sel, &Report{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
