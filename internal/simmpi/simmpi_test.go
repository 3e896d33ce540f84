package simmpi

import (
	"fmt"
	"math"
	"testing"

	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
)

// testModel returns a uniform simple cost model.
func testModel() *perfmodel.CostModel {
	return &perfmodel.CostModel{
		Node: perfmodel.NodeCapability{
			Name:               "t",
			Cores:              1,
			PeakFlops:          10 * units.GFlopPerSec,
			ScalarFlopsPerCore: 2 * units.GFlopPerSec,
			Domains: []perfmodel.MemoryDomain{{
				Cores: 1, PeakBandwidth: 10 * units.GBPerSec,
				PerCoreBandwidth: 10 * units.GBPerSec, Capacity: units.GiB,
			}},
		},
		Eff: map[perfmodel.KernelClass]perfmodel.Efficiency{
			perfmodel.VectorOp: {Compute: 1, Memory: 1},
		},
	}
}

func testFabric() *netmodel.Fabric {
	return &netmodel.Fabric{
		Name:             "test",
		Topo:             &topo.FatTree{NodesPerLeaf: 4},
		SoftwareOverhead: units.Microsecond,
		HopLatency:       units.Duration(100 * units.Nanosecond),
		LinkBandwidth:    10 * units.GBPerSec,
	}
}

func cfg(procs, nodes int) JobConfig {
	return JobConfig{
		Procs:     procs,
		Nodes:     nodes,
		CostModel: testModel(),
		Fabric:    testFabric(),
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(JobConfig{Procs: 0, CostModel: testModel()}, func(*Rank) error { return nil }); err == nil {
		t.Error("zero procs should fail")
	}
	if _, err := Run(JobConfig{Procs: 2}, func(*Rank) error { return nil }); err == nil {
		t.Error("missing CostModel should fail")
	}
	if _, err := Run(JobConfig{Procs: 2, Nodes: 4, CostModel: testModel()}, func(*Rank) error { return nil }); err == nil {
		t.Error("more nodes than procs should fail")
	}
	if _, err := Run(JobConfig{Procs: 4, Nodes: 2, CostModel: testModel()}, func(*Rank) error { return nil }); err == nil {
		t.Error("multi-node without fabric should fail")
	}
	// Single node without fabric gets the shared-memory default.
	if _, err := Run(JobConfig{Procs: 2, CostModel: testModel()}, func(*Rank) error { return nil }); err != nil {
		t.Errorf("single-node default fabric: %v", err)
	}
}

func TestRankIdentity(t *testing.T) {
	t.Parallel()
	seen := make([]bool, 8)
	rep, err := Run(cfg(8, 2), func(r *Rank) error {
		if r.Size() != 8 {
			return fmt.Errorf("size %d", r.Size())
		}
		// Block placement: ranks 0-3 on node 0, 4-7 on node 1.
		if want := r.ID() / 4; r.Node() != want {
			return fmt.Errorf("rank %d on node %d, want %d", r.ID(), r.Node(), want)
		}
		seen[r.ID()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Errorf("rank %d never ran", i)
		}
	}
	if len(rep.Ranks) != 8 {
		t.Errorf("report has %d ranks", len(rep.Ranks))
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	t.Parallel()
	_, err := Run(cfg(4, 1), func(r *Rank) error {
		if r.ID() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestPanicRecovered(t *testing.T) {
	t.Parallel()
	_, err := Run(cfg(2, 1), func(r *Rank) error {
		if r.ID() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic should surface as error")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	t.Parallel()
	rep, err := Run(cfg(1, 1), func(r *Rank) error {
		// 10 GFLOP at 10 GFLOP/s (VectorOp eff 1.0) = 1 s.
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: 10 * units.GFlop})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Seconds(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("makespan = %v, want 1.0", got)
	}
	if rep.TotalFlops != 10*units.GFlop {
		t.Errorf("flops = %v", rep.TotalFlops)
	}
	if got := rep.GFLOPs(); math.Abs(got-10) > 1e-6 {
		t.Errorf("GFLOPs = %v, want 10", got)
	}
}

func TestSendRecvCausality(t *testing.T) {
	t.Parallel()
	rep, err := Run(cfg(2, 2), func(r *Rank) error {
		if r.ID() == 0 {
			r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: 10 * units.GFlop}) // 1 s
			r.Send(1, 7, 8)
		} else {
			r.Recv(0, 7)
			// Receiver idled until at least sender's 1 s + latency.
			if r.Now().Seconds() < 1.0 {
				return fmt.Errorf("causality violated: recv at %v", r.Now())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1's wait time should be ≈1 s.
	if w := rep.Ranks[1].Wait.Seconds(); w < 0.99 {
		t.Errorf("rank 1 wait = %v, want ≈1", w)
	}
}

func TestElapse(t *testing.T) {
	t.Parallel()
	rep, _ := Run(cfg(1, 1), func(r *Rank) error {
		r.Elapse(units.Second)
		return nil
	})
	if rep.Seconds() != 1.0 {
		t.Errorf("makespan = %v", rep.Seconds())
	}
}

func TestInvalidRanksPanic(t *testing.T) {
	t.Parallel()
	_, err := Run(cfg(2, 1), func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(5, 0, 0) // invalid
		}
		return nil
	})
	if err == nil {
		t.Error("send to invalid rank should error via recovered panic")
	}
	_, err = Run(cfg(2, 1), func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(-1, 0)
		}
		return nil
	})
	if err == nil {
		t.Error("recv from invalid rank should error")
	}
}

func TestBarrierSynchronises(t *testing.T) {
	t.Parallel()
	rep, err := Run(cfg(4, 4), func(r *Rank) error {
		// Rank r computes r seconds, then a barrier.
		r.Compute(perfmodel.WorkProfile{
			Class: perfmodel.VectorOp,
			Flops: units.Flops(r.ID()) * 10 * units.GFlop,
		})
		r.Barrier()
		// Everyone must now be at ≥3 s (slowest rank's time).
		if r.Now().Seconds() < 3.0 {
			return fmt.Errorf("rank %d left barrier at %v", r.ID(), r.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds() < 3.0 {
		t.Errorf("makespan = %v", rep.Seconds())
	}
}

// TestAlltoall counts an all-to-all's messages and bytes: every rank
// sends its own size to each of the p−1 others.
func TestAlltoall(t *testing.T) {
	t.Parallel()
	for _, p := range []int{1, 2, 3, 4, 6, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			size := func(id int) units.Bytes { return units.Bytes(8 * (1 + id)) }
			rep, err := Run(cfg(p, min(p, 4)), func(r *Rank) error {
				r.Alltoall(size(r.ID()))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var wantBytes units.Bytes
			for id, rr := range rep.Ranks {
				want := units.Bytes(p-1) * size(id)
				if rr.Stats.MsgsSent != int64(p-1) || rr.Stats.BytesSent != want {
					t.Errorf("rank %d sent %d msgs, %d B; want %d, %d B",
						id, rr.Stats.MsgsSent, rr.Stats.BytesSent, p-1, want)
				}
				wantBytes += want
			}
			if rep.TotalMsgs != int64(p*(p-1)) || rep.TotalBytesSent != wantBytes {
				t.Errorf("job sent %d msgs, %d B; want %d, %d B",
					rep.TotalMsgs, rep.TotalBytesSent, p*(p-1), wantBytes)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	run := func() Report {
		rep, err := Run(cfg(8, 4), func(r *Rank) error {
			for it := 0; it < 5; it++ {
				r.Compute(perfmodel.WorkProfile{
					Class: perfmodel.VectorOp,
					Flops: units.Flops(1+r.ID()) * units.MFlop,
				})
				r.Allreduce(8)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("nondeterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.TotalMsgs != b.TotalMsgs || a.TotalBytesSent != b.TotalBytesSent {
		t.Error("nondeterministic message accounting")
	}
}

func TestStatsAccounting(t *testing.T) {
	t.Parallel()
	rep, err := Run(cfg(2, 2), func(r *Rank) error {
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop, Bytes: 1000})
		if r.ID() == 0 {
			r.Send(1, 1, 800)
		} else {
			r.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMsgs != 1 {
		t.Errorf("msgs = %d, want 1", rep.TotalMsgs)
	}
	if rep.TotalBytesSent != 800 {
		t.Errorf("bytes = %d, want 800", rep.TotalBytesSent)
	}
	st := rep.Ranks[0].Stats
	if st.Flops != units.MFlop || st.MemBytes != 1000 {
		t.Errorf("rank 0 stats %+v", st)
	}
	if st.ClassTime[perfmodel.VectorOp] <= 0 {
		t.Error("class time not recorded")
	}
}

func TestMoreNodesCostMoreForCollectives(t *testing.T) {
	t.Parallel()
	run := func(nodes int) float64 {
		rep, err := Run(cfg(16, nodes), func(r *Rank) error {
			for i := 0; i < 10; i++ {
				r.Allreduce(8)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds()
	}
	if run(16) <= run(1) {
		t.Error("spreading ranks across nodes should slow collectives")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
