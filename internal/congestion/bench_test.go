package congestion

import (
	"testing"

	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// burst is a deterministic synthetic flow schedule on a 48-node TofuD
// with four ranks per node: four iterations of a halo exchange with the
// neighbouring nodes' ranks, each followed by the rounds of a
// recursive-doubling allreduce. Every rank numbers its sends in program
// order, as the simmpi recorder does.
func burst() []Flow {
	const (
		nodes, perNode = 48, 4
		p              = nodes * perNode
		iters          = 4
		iterGap        = 400 * units.Microsecond
		roundGap       = 10 * units.Microsecond
	)
	var flows []Flow
	seq := make([]int, p)
	send := func(src, dst, tag int, at units.Duration, bytes units.Bytes) {
		flows = append(flows, Flow{
			Key:     FlowKey{Src: src, Dst: dst, Tag: tag, Seq: seq[src]},
			SrcNode: src / perNode, DstNode: dst / perNode,
			Start: vclock.Time(at), Bytes: bytes,
		})
		seq[src]++
	}
	for it := 0; it < iters; it++ {
		t0 := units.Duration(it) * iterGap
		for r := 0; r < p; r++ {
			send(r, (r+perNode)%p, 1, t0, 256<<10)
			send(r, (r-perNode+p)%p, 2, t0, 256<<10)
			for k, bit := 0, 1; bit < p; k, bit = k+1, bit<<1 {
				if peer := r ^ bit; peer < p {
					send(r, peer, 100+k, t0+units.Duration(k+3)*roundGap, 64<<10)
				}
			}
		}
	}
	return flows
}

var benchSolution *Solution

// BenchmarkSolve prices the synthetic burst: routing, the fluid max-min
// schedule and the link report of an untraced job.
func BenchmarkSolve(b *testing.B) {
	cfg := Config{Topo: topo.NewTofuD(48), Capacity: flat(6.8 * units.GBPerSec), InjectionCapacity: 6.8 * units.GBPerSec}
	flows := burst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSolution = Solve(cfg, flows)
	}
}
