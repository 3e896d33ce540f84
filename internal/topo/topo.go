// Package topo models the network topologies of the five systems in the
// study: the Fujitsu TofuD 6D mesh/torus, Cray's Aries dragonfly (ARCHER),
// fat-tree InfiniBand fabrics (Cirrus FDR, Fulhame EDR) and Intel OmniPath
// (EPCC NGIO, also a fat tree).
//
// A topology answers two questions for the cost model: how many
// switch/link hops separate two nodes, and which concrete links a
// minimally-routed message between them traverses. The netmodel package
// turns hop counts into latency; the congestion package turns routes
// into per-link contention. Topologies are deterministic functions of
// node indices so simulations are reproducible.
package topo

import (
	"math"
	"sync/atomic"
)

// Topology reports hop distances and minimal routes between nodes.
type Topology interface {
	// Hops returns the number of network hops (links traversed) between
	// two node indices. Hops(a,a) is 0.
	Hops(a, b int) int
	// Route enumerates the directed links a minimally-routed message
	// from a to b traverses, in traversal order. Route(a,a) is empty,
	// and len(Route(a,b)) == Hops(a,b) — routes are the link-level
	// expansion of the hop metric, never a different metric.
	Route(a, b int) []Link
	// MaxNodes is the largest node index the topology supports plus one;
	// 0 means unbounded.
	MaxNodes() int
}

// Torus is a k-dimensional wraparound mesh. Node i maps to mixed-radix
// coordinates over Dims, and distance is the sum of per-dimension ring
// distances — the routing metric of Tofu-style interconnects.
type Torus struct {
	// Dims are the per-dimension extents, all ≥ 1.
	Dims []int

	// tab caches the coordinate/stride lookup table. Hops sits on the
	// pricing hot path (every message and every MeanHops pair), so
	// coordinates are decoded once and reused instead of re-dividing —
	// and Hops stays allocation-free. Built lazily because tori are
	// constructed with struct literals throughout the tree; the
	// compare-and-swap keeps concurrent first calls race-free (both
	// build the same table, one wins).
	tab atomic.Pointer[torusTable]
}

// torusTable is the precomputed coordinate decomposition of a torus.
type torusTable struct {
	// coords holds the mixed-radix coordinates of every node,
	// node-major: node i's coordinate in dimension d is coords[i*k+d].
	coords []int32
	// stride[d] is the node-index distance of one step in dimension d.
	stride []int
	// n and k are the node count and dimension count.
	n, k int
}

// table returns (building on first use) the coordinate table.
func (t *Torus) table() *torusTable {
	if tt := t.tab.Load(); tt != nil {
		return tt
	}
	n, k := 1, len(t.Dims)
	for _, d := range t.Dims {
		n *= d
	}
	tt := &torusTable{coords: make([]int32, n*k), stride: make([]int, k), n: n, k: k}
	s := 1
	for d := k - 1; d >= 0; d-- {
		tt.stride[d] = s
		s *= t.Dims[d]
	}
	for i := 0; i < n; i++ {
		rem := i
		for d := k - 1; d >= 0; d-- {
			tt.coords[i*k+d] = int32(rem % t.Dims[d])
			rem /= t.Dims[d]
		}
	}
	t.tab.CompareAndSwap(nil, tt)
	return t.tab.Load()
}

// NewTofuD builds a torus shaped like the Tofu Interconnect D unit
// structure for a machine of at least `nodes` nodes. TofuD composes 2×3×2
// node groups into a 3D torus of groups; we factor the machine the same
// way: dims = (X, Y, 2, 3, 2) with X·Y sized to cover the node count.
func NewTofuD(nodes int) *Torus {
	if nodes < 1 {
		nodes = 1
	}
	group := 2 * 3 * 2 // 12-node TofuD unit
	groups := (nodes + group - 1) / group
	// Arrange groups in as square an XY torus as possible.
	x := int(math.Sqrt(float64(groups)))
	if x < 1 {
		x = 1
	}
	y := (groups + x - 1) / x
	return &Torus{Dims: []int{x, y, 2, 3, 2}}
}

// MaxNodes implements Topology.
func (t *Torus) MaxNodes() int {
	n := 1
	for _, d := range t.Dims {
		n *= d
	}
	return n
}

// Hops implements Topology using per-dimension ring distance. It is
// allocation-free: coordinates come from the precomputed table (indices
// wrap modulo the node count, matching the old mixed-radix decode).
func (t *Torus) Hops(a, b int) int {
	if a == b {
		return 0
	}
	tt := t.table()
	a, b = a%tt.n, b%tt.n
	k := tt.k
	ca, cb := tt.coords[a*k:a*k+k], tt.coords[b*k:b*k+k]
	total := 0
	for d := 0; d < k; d++ {
		diff := int(ca[d] - cb[d])
		if diff < 0 {
			diff = -diff
		}
		if wrap := t.Dims[d] - diff; wrap < diff {
			diff = wrap
		}
		total += diff
	}
	return total
}

// Dragonfly models the Cray Aries topology used by ARCHER: nodes attach in
// groups; routers within a group are all-to-all connected, and every group
// pair has a direct global link. Minimal routing is therefore at most
// local + global + local = 3 router-to-router hops, plus the two
// node-to-router links.
type Dragonfly struct {
	// NodesPerRouter is the number of nodes per Aries router (4 on XC30).
	NodesPerRouter int
	// RoutersPerGroup is the number of routers in a group (96 per
	// two-cabinet group on XC30).
	RoutersPerGroup int
}

// NewAries returns the ARCHER XC30 dragonfly configuration.
func NewAries() *Dragonfly {
	return &Dragonfly{NodesPerRouter: 4, RoutersPerGroup: 96}
}

// MaxNodes implements Topology (unbounded: groups scale out).
func (d *Dragonfly) MaxNodes() int { return 0 }

// Hops implements Topology. Distances: same router 2 (node-router-node),
// same group 3, different group 5 (two node links + local,global,local).
func (d *Dragonfly) Hops(a, b int) int {
	if a == b {
		return 0
	}
	ra, rb := a/d.NodesPerRouter, b/d.NodesPerRouter
	if ra == rb {
		return 2
	}
	ga, gb := ra/d.RoutersPerGroup, rb/d.RoutersPerGroup
	if ga == gb {
		return 3
	}
	return 5
}

// FatTree models a non-blocking fat tree (InfiniBand or OmniPath): nodes
// under the same leaf switch are 2 hops apart, anything further is routed
// through the core for 4 hops. Non-blocking means no bandwidth penalty is
// modelled for the extra tier; only latency grows.
type FatTree struct {
	// NodesPerLeaf is the number of nodes per leaf (edge) switch.
	NodesPerLeaf int
	// Uplinks is the number of core uplinks each leaf switch drives —
	// the routing fan-out of Route. 0 means fully provisioned (one
	// uplink per node port, non-blocking); fewer uplinks than nodes per
	// leaf models an oversubscribed tree, which only matters to the
	// contention engine: Hops (and thus latency) is unchanged.
	Uplinks int
}

// MaxNodes implements Topology (unbounded).
func (f *FatTree) MaxNodes() int { return 0 }

// Hops implements Topology.
func (f *FatTree) Hops(a, b int) int {
	if a == b {
		return 0
	}
	if f.NodesPerLeaf > 0 && a/f.NodesPerLeaf == b/f.NodesPerLeaf {
		return 2
	}
	return 4
}

// MeanHops estimates the average hop distance over the first n nodes of a
// topology, used by collective cost models to choose an effective latency.
// For n ≤ 1 it returns 0. Small machines are enumerated exactly; beyond
// meanHopsExactLimit nodes a deterministic pair sample keeps the cost
// bounded (the estimate converges fast because hop distributions are
// narrow).
func MeanHops(t Topology, n int) float64 {
	if n <= 1 {
		return 0
	}
	if m := t.MaxNodes(); m > 0 && n > m {
		n = m
	}
	if n <= meanHopsExactLimit {
		sum, cnt := 0, 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				sum += t.Hops(a, b)
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return float64(sum) / float64(cnt)
	}
	// Deterministic sampling: a fixed-seed linear-congruential stream of
	// pairs, reproducible across runs.
	const samples = 1 << 16
	var state uint64 = 0x9E3779B97F4A7C15
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	sum, cnt := 0, 0
	for i := 0; i < samples; i++ {
		a, b := next(), next()
		if a == b {
			continue
		}
		sum += t.Hops(a, b)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// meanHopsExactLimit bounds the O(n²) exact enumeration.
const meanHopsExactLimit = 512
