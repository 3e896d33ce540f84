// Package netmodel prices inter-node communication on a given fabric:
// point-to-point transfers, and one closed-form allreduce for
// projections beyond the simulated range.
//
// The point-to-point model is LogGP-flavoured:
//
//	T(a→b, s) = o_sw + hops(a,b)·l_hop + s / B
//
// where o_sw is the software/injection overhead of the MPI stack, l_hop
// the per-hop switch+wire latency, and B the per-link (or injection-
// limited) bandwidth. Simulated collectives are priced message by
// message through this model (package simmpi). The closed-form
// Allreduce uses the standard algorithm models (recursive doubling,
// Rabenseifner), evaluated at an effective latency derived from the
// topology's mean hop distance — what a vendor-tuned collective achieves
// without us modelling per-message routing inside the collective tree.
package netmodel

import (
	"math"

	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
)

// Fabric is a priced interconnect: topology plus link/stack parameters.
type Fabric struct {
	// Name identifies the fabric in reports, e.g. "TofuD".
	Name string
	// Topo supplies hop distances.
	Topo topo.Topology
	// SoftwareOverhead is the per-message MPI stack cost at sender plus
	// receiver (the dominant term of small-message latency).
	SoftwareOverhead units.Duration
	// HopLatency is the per-hop switch traversal plus wire time.
	HopLatency units.Duration
	// LinkBandwidth is the per-direction bandwidth of one link.
	LinkBandwidth units.ByteRate
	// InjectionBandwidth caps what one node can push into the fabric
	// regardless of path (NIC limit); 0 means same as LinkBandwidth.
	InjectionBandwidth units.ByteRate
}

// effBandwidth is the bandwidth one stream achieves.
func (f *Fabric) effBandwidth() units.ByteRate {
	bw := f.LinkBandwidth
	if f.InjectionBandwidth > 0 && f.InjectionBandwidth < bw {
		bw = f.InjectionBandwidth
	}
	return bw
}

// PointToPoint prices a message of `bytes` from node a to node b.
// Intra-node messages (a == b) cost only a reduced software overhead plus
// a memory-speed copy; MPI implementations short-circuit shared-memory
// transfers.
func (f *Fabric) PointToPoint(a, b int, bytes units.Bytes) units.Duration {
	return f.HopPrice(f.hops(a, b), bytes, 1)
}

// PointToPointDilated prices a message whose serialization term is
// stretched by a contention dilation factor dil ≥ 1 (computed by the
// congestion package from the link-level flow schedule). The latency
// terms are unaffected — contention queues bytes, not signal time — so
// dil == 1 reproduces PointToPoint exactly.
func (f *Fabric) PointToPointDilated(a, b int, bytes units.Bytes, dil float64) units.Duration {
	return f.HopPrice(f.hops(a, b), bytes, dil)
}

// hops is the hop count HopPrice takes for a message from node a to
// node b: -1 within a node, the topology's distance otherwise.
func (f *Fabric) hops(a, b int) int {
	if a == b {
		return -1
	}
	return f.Topo.Hops(a, b)
}

// HopPrice prices a message of `bytes` that crosses `hops` network hops,
// its serialization term stretched by the dilation dil. A negative hop
// count is an intra-node message: half the stack overhead and a copy at
// an optimistic 10 GB/s single-stream memcpy rate, never dilated. A
// dilation ≤ 1 prices the message contention-free. PointToPoint and
// PointToPointDilated are HopPrice at the pair's hop count, so a caller
// that already knows the hop count gets the same bits.
func (f *Fabric) HopPrice(hops int, bytes units.Bytes, dil float64) units.Duration {
	if hops < 0 {
		return f.SoftwareOverhead/2 + units.TimeFor(float64(bytes), 10e9)
	}
	if dil <= 1 {
		dil = 1
	}
	t := f.SoftwareOverhead + units.Duration(hops)*f.HopLatency
	t += units.TimeFor(float64(bytes)*dil, float64(f.effBandwidth()))
	return t
}

// LinkCapacity prices one topology link for the contention model: host
// injection/ejection ports carry the NIC's injection bandwidth, every
// switch-level link the link bandwidth.
func (f *Fabric) LinkCapacity(l topo.Link) units.ByteRate {
	if l.Level == topo.LevelHostUp || l.Level == topo.LevelHostDown {
		if f.InjectionBandwidth > 0 {
			return f.InjectionBandwidth
		}
	}
	return f.LinkBandwidth
}

// effAlpha is the effective per-step latency of a collective over the
// first n nodes: software overhead plus mean-hop wire time.
func (f *Fabric) effAlpha(n int) units.Duration {
	mean := topo.MeanHops(f.Topo, n)
	return f.SoftwareOverhead + units.DurationFromSeconds(mean*f.HopLatency.Seconds())
}

// log2ceil returns ⌈log₂ n⌉ for n ≥ 1.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// Allreduce prices an allreduce of `bytes` across `procs` processes spread
// over `nodes` nodes. Intra-node combining happens first at memory speed,
// then the inter-node phase uses Rabenseifner's algorithm for large
// payloads and recursive doubling for small ones.
func (f *Fabric) Allreduce(procs, nodes int, bytes units.Bytes) units.Duration {
	if procs <= 1 {
		return 0
	}
	var t units.Duration
	ppn := (procs + max(nodes, 1) - 1) / max(nodes, 1)
	if ppn > 1 {
		// Shared-memory tree combine within the node.
		steps := log2ceil(ppn)
		t += units.Duration(steps) * (f.SoftwareOverhead / 2)
		t += units.Duration(steps) * units.TimeFor(float64(bytes), 10e9)
	}
	if nodes > 1 {
		alpha := f.effAlpha(nodes)
		beta := float64(f.effBandwidth())
		steps := log2ceil(nodes)
		if bytes >= 64*units.KiB {
			// Rabenseifner: reduce-scatter + allgather moves
			// 2·s·(n-1)/n bytes in 2·log n latency steps.
			vol := 2 * float64(bytes) * float64(nodes-1) / float64(nodes)
			t += units.Duration(2*steps) * alpha
			t += units.TimeFor(vol, beta)
		} else {
			// Recursive doubling: log n steps of the full payload.
			t += units.Duration(steps) * (alpha + units.TimeFor(float64(bytes), beta))
		}
	}
	return t
}

// Standard fabrics for the five systems. Latency and bandwidth parameters
// come from the interconnect literature cited in the paper: TofuD (Ajima et
// al. 2018: 6.8 GB/s links, ~0.5 µs put latency), Aries (~1.3 µs MPI
// latency, ~10 GB/s injection), FDR and EDR InfiniBand and OmniPath vendor
// figures.

// NewTofuD prices the A64FX system's Tofu Interconnect D.
func NewTofuD(nodes int) *Fabric {
	return &Fabric{
		Name:               "TofuD",
		Topo:               topo.NewTofuD(nodes),
		SoftwareOverhead:   units.Duration(900 * units.Nanosecond),
		HopLatency:         units.Duration(120 * units.Nanosecond),
		LinkBandwidth:      6.8 * units.GBPerSec,
		InjectionBandwidth: 6.8 * units.GBPerSec,
	}
}

// NewAries prices ARCHER's Cray Aries dragonfly.
func NewAries() *Fabric {
	return &Fabric{
		Name:               "Aries",
		Topo:               topo.NewAries(),
		SoftwareOverhead:   units.Duration(1100 * units.Nanosecond),
		HopLatency:         units.Duration(100 * units.Nanosecond),
		LinkBandwidth:      9.0 * units.GBPerSec,
		InjectionBandwidth: 9.0 * units.GBPerSec,
	}
}

// NewFDRInfiniBand prices Cirrus's Mellanox FDR fat tree.
func NewFDRInfiniBand() *Fabric {
	return &Fabric{
		Name: "FDR InfiniBand",
		// 2:1 oversubscribed at the leaf (18 uplinks per 36-port edge
		// switch) — Hops is unchanged, only contention sees it.
		Topo:               &topo.FatTree{NodesPerLeaf: 36, Uplinks: 18},
		SoftwareOverhead:   units.Duration(1200 * units.Nanosecond),
		HopLatency:         units.Duration(150 * units.Nanosecond),
		LinkBandwidth:      6.8 * units.GBPerSec, // 56 Gb/s signalling
		InjectionBandwidth: 6.0 * units.GBPerSec,
	}
}

// NewEDRInfiniBand prices Fulhame's Mellanox EDR non-blocking fat tree.
func NewEDRInfiniBand() *Fabric {
	return &Fabric{
		Name:               "EDR InfiniBand",
		Topo:               &topo.FatTree{NodesPerLeaf: 32},
		SoftwareOverhead:   units.Duration(1000 * units.Nanosecond),
		HopLatency:         units.Duration(130 * units.Nanosecond),
		LinkBandwidth:      12.5 * units.GBPerSec, // 100 Gb/s
		InjectionBandwidth: 11.0 * units.GBPerSec,
	}
}

// NewOmniPath prices EPCC NGIO's Intel OmniPath fabric.
func NewOmniPath() *Fabric {
	return &Fabric{
		Name: "OmniPath",
		// 2:1 oversubscribed at the leaf; EDR above stays non-blocking.
		Topo:               &topo.FatTree{NodesPerLeaf: 32, Uplinks: 16},
		SoftwareOverhead:   units.Duration(1300 * units.Nanosecond),
		HopLatency:         units.Duration(140 * units.Nanosecond),
		LinkBandwidth:      12.5 * units.GBPerSec, // 100 Gb/s
		InjectionBandwidth: 10.5 * units.GBPerSec,
	}
}
