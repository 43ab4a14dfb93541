package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// testKeys returns n deterministic pseudo-random keys (the cluster's
// real keys are SHA-256 digests; random bytes model them).
func testKeys(n int) [][]byte {
	rng := rand.New(rand.NewSource(42))
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 32)
		rng.Read(k)
		keys[i] = k
	}
	return keys
}

func testNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("10.0.0.%d:8080", i+1)
	}
	return nodes
}

// Ownership must be a pure function of the configured node set:
// shuffled input order, duplicate entries, and a rebuilt ring all
// agree on every key.
func TestRingDeterminism(t *testing.T) {
	nodes := testNodes(5)
	shuffled := []string{nodes[3], nodes[0], nodes[4], nodes[0], nodes[2], nodes[1], nodes[3]}
	a := NewRing(nodes)
	b := NewRing(shuffled)
	c := NewRing(nodes)
	for _, k := range testKeys(5000) {
		oa, ob, oc := a.Owner(k), b.Owner(k), c.Owner(k)
		if oa != ob || oa != oc {
			t.Fatalf("owner disagreement for %x: %q vs %q vs %q", k[:4], oa, ob, oc)
		}
	}
	if got := len(b.Nodes()); got != 5 {
		t.Fatalf("duplicates not collapsed: %d nodes", got)
	}
}

// A single node joining or leaving must move at most 2/N of the keys:
// consistent hashing's whole point is that membership changes touch
// only the keys adjacent to the changed node's points, roughly 1/N in
// expectation, never a full reshuffle.
func TestRingKeyMovementOnMembershipChange(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{3, 5, 8} {
		nodes := testNodes(n)
		before := NewRing(nodes)

		joined := NewRing(append(append([]string{}, nodes...), "10.0.1.99:8080"))
		moved := 0
		for _, k := range keys {
			if before.Owner(k) != joined.Owner(k) {
				moved++
			}
		}
		if limit := 2 * len(keys) / n; moved > limit {
			t.Errorf("join at n=%d moved %d/%d keys (limit %d)", n, moved, len(keys), limit)
		}

		left := NewRing(nodes[:n-1])
		moved = 0
		for _, k := range keys {
			if before.Owner(k) != left.Owner(k) {
				moved++
			}
		}
		if limit := 2 * len(keys) / n; moved > limit {
			t.Errorf("leave at n=%d moved %d/%d keys (limit %d)", n, moved, len(keys), limit)
		}
		// Every key that moved on a leave must have been owned by the
		// departed node — survivors never trade keys among themselves.
		gone := nodes[n-1]
		for _, k := range keys {
			if b, l := before.Owner(k), left.Owner(k); b != l && b != gone {
				t.Fatalf("leave reshuffled a survivor's key: %q -> %q (departed %q)", b, l, gone)
			}
		}
	}
}

// At 128 vnodes the load split across realistic fleet sizes stays
// within 15% of even. (Beyond ~6 nodes the per-node share variance of
// 128 points grows; E9 measures it.)
func TestRingBalanceWithin15Percent(t *testing.T) {
	keys := testKeys(100000)
	for _, n := range []int{2, 3, 5, 6} {
		r := NewRing(testNodes(n))
		counts := map[string]int{}
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		mean := float64(len(keys)) / float64(n)
		for node, c := range counts {
			dev := float64(c)/mean - 1
			if dev < 0 {
				dev = -dev
			}
			if dev > 0.15 {
				t.Errorf("n=%d: node %s holds %.1f%% of mean share (>15%% off)", n, node, 100*float64(c)/mean)
			}
		}
		if len(counts) != n {
			t.Errorf("n=%d: only %d nodes own keys", n, len(counts))
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner([]byte("k")); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
	one := NewRing([]string{"a:1"})
	for _, k := range testKeys(50) {
		if one.Owner(k) != "a:1" {
			t.Fatal("single node must own everything")
		}
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r := NewRing(testNodes(5))
	keys := testKeys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owner(keys[i&1023])
	}
}
