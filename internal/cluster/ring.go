// Package cluster is fepiad's stdlib-only peer layer: a consistent-hash
// ring that assigns every radius-cache key (spec.System.RouteKey()) to
// exactly one owning node, plus an HTTP router that forwards non-owned
// requests to the owner under the shared resilience primitives — the
// decorrelated-jitter retry policy and a per-peer circuit breaker from
// internal/faults. Each node's sharded radius cache then stays hot for
// its own arc of the key space, so warm-hit throughput scales with the
// node count instead of thrashing one LRU (docs/CLUSTER.md).
//
// The package deliberately knows nothing about the serving layer: it
// moves opaque request bytes between peers and reports typed failures
// (*PeerError); internal/server decides what to do when a peer is down
// (degraded local serving, docs/SERVICE.md).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per peer: enough points that
// three nodes split the key space within a few percent of evenly, cheap
// enough that ring construction is instant.
const DefaultReplicas = 64

// Ring is an immutable consistent-hash ring over node IDs. Each node
// contributes `replicas` virtual points; a key is owned by the node of
// the first point at or clockwise after the key's mixed hash. Immutable
// after construction, so lookups are lock-free and safe for concurrent
// use.
type Ring struct {
	hashes   []uint64 // sorted virtual-point positions
	owners   []string // owners[i] owns the arc ending at hashes[i]
	nodes    []string // distinct node IDs, sorted
	replicas int
}

// NewRing builds a ring from the node IDs (order-insensitive — the ring
// layout depends only on the ID set, so every node computes the same
// ring). replicas ≤ 0 selects DefaultReplicas. Duplicate or empty IDs
// are rejected.
func NewRing(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", id)
		}
	}
	r := &Ring{
		hashes:   make([]uint64, 0, len(sorted)*replicas),
		owners:   make([]string, 0, len(sorted)*replicas),
		nodes:    sorted,
		replicas: replicas,
	}
	type point struct {
		h    uint64
		node string
	}
	points := make([]point, 0, len(sorted)*replicas)
	for _, id := range sorted {
		for i := 0; i < replicas; i++ {
			points = append(points, point{h: pointHash(id, i), node: id})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].h != points[j].h {
			return points[i].h < points[j].h
		}
		// Colliding virtual points (vanishingly rare) tie-break by ID so
		// every node still derives the identical ring.
		return points[i].node < points[j].node
	})
	for _, p := range points {
		r.hashes = append(r.hashes, p.h)
		r.owners = append(r.owners, p.node)
	}
	return r, nil
}

// pointHash places one virtual point: FNV-64a of "id#replica" pushed
// through a finalizer so the points spread uniformly even for short,
// similar IDs.
func pointHash(id string, replica int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	_, _ = h.Write([]byte{'#'})
	_, _ = h.Write([]byte(strconv.Itoa(replica)))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche that
// decorrelates structured inputs (FNV digests of similar documents,
// sequential replica indices) before they land on the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the node that owns key (a spec.System.RouteKey()). The key
// is mixed before lookup, so callers pass their digest verbatim.
func (r *Ring) Owner(key uint64) string {
	h := mix64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap past the highest point to the first
	}
	return r.owners[i]
}

// Nodes returns the ring's members, sorted by ID.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Replicas returns the virtual-point count per node.
func (r *Ring) Replicas() int { return r.replicas }

// Share returns the fraction of the key space the node owns — the ring
// ownership gauge of the metrics catalog. Unknown nodes own 0.
func (r *Ring) Share(node string) float64 {
	if len(r.hashes) == 0 {
		return 0
	}
	var owned uint64
	points := 0
	for i, owner := range r.owners {
		if owner != node {
			continue
		}
		points++
		// Wraparound subtraction measures the arc ending at hashes[i].
		prev := r.hashes[(i+len(r.hashes)-1)%len(r.hashes)]
		owned += r.hashes[i] - prev
	}
	if points == len(r.hashes) {
		// The node owns every point: the arcs sum to the full 2^64 circle,
		// which wraps to 0 in uint64 arithmetic.
		return 1
	}
	return float64(owned) / float64(^uint64(0))
}
