// Package cluster turns a set of independent sliced daemons into a
// shardable fleet. It is stdlib-only and owns the two mechanisms a
// static-membership cluster needs:
//
//   - a consistent-hash ring (Ring) with virtual nodes, mapping the
//     SHA-256 content address of a program to the node that owns its
//     analyses, so every node agrees on placement without any
//     coordination traffic;
//   - a peer table (Peers) with a lightweight HTTP health probe per
//     peer, marking nodes up and down with exponential backoff so a
//     dead owner degrades routing to local serving instead of
//     erroring.
//
// Membership is static — the fleet is configured with -peers on every
// node — and routing is deterministic over the full configured list,
// not over the live subset: a probe flap must not reshuffle ownership
// (which would stampede the caches), so health only gates whether a
// hop is attempted, never where a key lives.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Vnodes is the virtual-node count per physical node. 128 points per
// node keep the expected load imbalance within a few percent of even
// while the ring stays small enough to rebuild instantly on
// configuration change.
const Vnodes = 128

// Ring is an immutable consistent-hash ring over a static node list.
// Every node in the fleet builds the same ring from the same -peers
// list, so ownership is agreed upon without coordination. All methods
// are safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // deduplicated, sorted
}

type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// NewRing builds a ring with Vnodes virtual points per node.
// Duplicate node names collapse; the input order does not matter —
// two rings over the same set are identical.
func NewRing(nodes []string) *Ring {
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		nodes:  uniq,
		points: make([]ringPoint, 0, len(uniq)*Vnodes),
	}
	for i, node := range uniq {
		for v := 0; v < Vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: pointHash(node, v),
				node: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (astronomically rare with a 64-bit space) break by node
		// index so the ring stays deterministic regardless of input
		// order.
		return r.points[a].node < r.points[b].node
	})
	return r
}

// pointHash places one virtual node on the ring: the first 8 bytes of
// SHA-256 over "node\x00vnode". SHA-256 keeps the point distribution
// uniform enough that 128 vnodes balance real fleets within ~15%.
func pointHash(node string, vnode int) uint64 {
	h := sha256.New()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(vnode)))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash maps an arbitrary key onto the ring's 64-bit space. Keys
// are hashed again (even though the cluster's keys are already
// SHA-256 digests) so the ring makes no assumptions about key
// distribution.
func keyHash(key []byte) uint64 {
	sum := sha256.Sum256(key)
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the ring's node list (sorted, deduplicated). Callers
// must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node owning key: the first virtual point at or
// after the key's hash, wrapping at the top of the ring. An empty
// ring owns nothing ("").
func (r *Ring) Owner(key []byte) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.search(keyHash(key))].node]
}

// search finds the index of the first point with hash >= h, wrapping
// to 0 past the end.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
