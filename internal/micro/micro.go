// Package micro provides the microbenchmarks that validate the machine
// and network models against their specification inputs: a STREAM-triad
// bandwidth sweep (the paper cites >240 GB/s per ThunderX2 node and
// ~256 GB/s per A64FX CMG), an OSU-style ping-pong latency/bandwidth
// probe, and collective-cost sweeps. These are the "is the simulator
// wired correctly" instruments — if STREAM does not reproduce the
// Table I-derived bandwidths, nothing downstream can be trusted.
package micro

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// StreamResult is one point of a STREAM-triad core sweep.
type StreamResult struct {
	Cores int
	// Bandwidth is the achieved triad bandwidth.
	Bandwidth units.ByteRate
}

// StreamTriad sweeps a STREAM-triad (a[i] = b[i] + s·c[i]) over core
// counts on one node of the system, returning the achieved bandwidth at
// each count. Array length follows STREAM rules (much larger than
// cache).
func StreamTriad(sys *arch.System, coreCounts []int) ([]StreamResult, error) {
	if sys == nil {
		return nil, fmt.Errorf("micro: system is required")
	}
	const elems = 1 << 25 // 33.5M doubles per array, ≫ any L2
	var out []StreamResult
	for _, c := range coreCounts {
		if c < 1 || c > sys.CoresPerNode() {
			return nil, fmt.Errorf("micro: %d cores outside 1..%d", c, sys.CoresPerNode())
		}
		// One rank per core, each owning an equal slice of the arrays.
		per := float64(elems) / float64(c)
		w := perfmodel.WorkProfile{
			Class: perfmodel.VectorOp,
			Flops: units.Flops(2 * per),
			Bytes: units.Bytes(3 * 8 * per), // two loads + one store
			Calls: 1,
		}
		model := sys.PerRankModel(c, 1)
		job := simmpi.JobConfig{
			Procs: c, Nodes: 1, ThreadsPerRank: 1,
			CostModel: model,
		}
		const reps = 10
		rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
			for i := 0; i < reps; i++ {
				r.Compute(w)
			}
			r.Barrier()
			return nil
		})
		if err != nil {
			return nil, err
		}
		total := float64(3*8*elems) * reps
		out = append(out, StreamResult{
			Cores:     c,
			Bandwidth: units.ByteRate(units.Rate(total, rep.Makespan)),
		})
	}
	return out, nil
}

// PingPongResult is one message-size point of the latency/bandwidth probe.
type PingPongResult struct {
	Bytes units.Bytes
	// HalfRoundTrip is the one-way time (half the ping-pong round trip).
	HalfRoundTrip units.Duration
	// Bandwidth is the achieved one-way bandwidth.
	Bandwidth units.ByteRate
}

// PingPong measures one-way latency and bandwidth between two ranks on
// different nodes of the system, across message sizes — the OSU
// latency/bandwidth pair.
func PingPong(sys *arch.System, sizes []units.Bytes) ([]PingPongResult, error) {
	if sys == nil {
		return nil, fmt.Errorf("micro: system is required")
	}
	model := sys.PerRankModel(1, 1)
	var out []PingPongResult
	for _, size := range sizes {
		size := size
		const reps = 50
		job := simmpi.JobConfig{
			Procs: 2, Nodes: 2, ThreadsPerRank: 1,
			CostModel: model,
			Fabric:    sys.NewFabric(2),
		}
		rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
			for i := 0; i < reps; i++ {
				if r.ID() == 0 {
					r.Send(1, 5, size)
					r.Recv(1, 6)
				} else {
					r.Recv(0, 5)
					r.Send(0, 6, size)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		oneWay := units.DurationFromSeconds(rep.Makespan.Seconds() / (2 * reps))
		res := PingPongResult{Bytes: size, HalfRoundTrip: oneWay}
		if s := oneWay.Seconds(); s > 0 {
			res.Bandwidth = units.ByteRate(float64(size) / s)
		}
		out = append(out, res)
	}
	return out, nil
}

// CollectiveResult is one point of an allreduce node sweep.
type CollectiveResult struct {
	Nodes int
	// Time is the per-call allreduce duration.
	Time units.Duration
}

// AllreduceSweep measures an 8-byte allreduce across node counts with
// fully populated nodes — the collective whose scaling underpins every
// CG-type benchmark in the study.
func AllreduceSweep(sys *arch.System, nodeCounts []int) ([]CollectiveResult, error) {
	if sys == nil {
		return nil, fmt.Errorf("micro: system is required")
	}
	var out []CollectiveResult
	for _, nodes := range nodeCounts {
		if nodes < 1 {
			return nil, fmt.Errorf("micro: invalid node count %d", nodes)
		}
		procs := nodes * sys.CoresPerNode()
		model := sys.PerRankModel(sys.CoresPerNode(), 1)
		job := simmpi.JobConfig{
			Procs: procs, Nodes: nodes, ThreadsPerRank: 1,
			CostModel: model,
			Fabric:    sys.NewFabric(nodes),
		}
		const reps = 20
		rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
			for i := 0; i < reps; i++ {
				r.Allreduce(8)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, CollectiveResult{
			Nodes: nodes,
			Time:  units.DurationFromSeconds(rep.Makespan.Seconds() / reps),
		})
	}
	return out, nil
}
