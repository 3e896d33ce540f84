package congestion

import (
	"testing"

	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// burst is a deterministic synthetic flow schedule for nodes × perNode
// ranks placed in blocks: iters iterations of a halo exchange with the
// neighbouring nodes' ranks, each followed by the rounds of a
// recursive-doubling allreduce. Like the simmpi recorder, it keeps only
// inter-node sends, numbers each rank's in program order and hands them
// over rank by rank.
func burst(nodes, perNode, iters int) []Flow {
	const (
		iterGap  = 400 * units.Microsecond
		roundGap = 10 * units.Microsecond
	)
	p := nodes * perNode
	var flows []Flow
	for r := 0; r < p; r++ {
		seq := 0
		send := func(dst, tag int, at units.Duration, bytes units.Bytes) {
			if dst/perNode != r/perNode {
				flows = append(flows, Flow{
					Key:     FlowKey{Src: r, Dst: dst, Tag: tag, Seq: seq},
					SrcNode: r / perNode, DstNode: dst / perNode,
					Start: vclock.Time(at), Bytes: bytes,
				})
				seq++
			}
		}
		for it := 0; it < iters; it++ {
			t0 := units.Duration(it) * iterGap
			send((r+perNode)%p, 1, t0, 256<<10)
			send((r-perNode+p)%p, 2, t0, 256<<10)
			for k, bit := 0, 1; bit < p; k, bit = k+1, bit<<1 {
				if peer := r ^ bit; peer < p {
					send(peer, 100+k, t0+units.Duration(k+3)*roundGap, 64<<10)
				}
			}
		}
	}
	return flows
}

var benchSolution *Solution

// BenchmarkSolve prices synthetic bursts: routing, the fluid max-min
// schedule and the link report of an untraced job. tofud-48x4 spreads
// few ranks over many nodes; fattree-8x48 packs many ranks onto a few
// nodes of one fat-tree leaf, the shape of the costliest solves of a
// congested quick sweep, where each node pair's class holds hundreds of
// flows.
func BenchmarkSolve(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cfg   Config
		flows []Flow
	}{
		{"tofud-48x4",
			Config{Topo: topo.NewTofuD(48), Capacity: flat(6.8 * units.GBPerSec), InjectionCapacity: 6.8 * units.GBPerSec},
			burst(48, 4, 4)},
		{"fattree-8x48",
			Config{Topo: &topo.FatTree{NodesPerLeaf: 32}, Capacity: flat(12.5 * units.GBPerSec), InjectionCapacity: 11 * units.GBPerSec},
			burst(8, 48, 16)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolution = Solve(bc.cfg, bc.flows)
			}
		})
	}
}
