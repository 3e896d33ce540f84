package simmpi

import (
	"reflect"
	"testing"

	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
)

// congFabric builds a fabric on the given topology with serialization-
// dominated pricing, so contention effects are visible above latency.
func congFabric(tp topo.Topology) *netmodel.Fabric {
	return &netmodel.Fabric{
		Name:               "cong-test",
		Topo:               tp,
		SoftwareOverhead:   units.Microsecond,
		HopLatency:         units.Duration(100 * units.Nanosecond),
		LinkBandwidth:      10 * units.GBPerSec,
		InjectionBandwidth: 10 * units.GBPerSec,
	}
}

// fanIn is a many-to-one workload: every rank streams a large message to
// rank 0, so rank 0's ejection port is a guaranteed bottleneck.
func fanIn(r *Rank) error {
	const n = 1 << 17 // 1 MiB of float64s
	if r.ID() == 0 {
		for src := 1; src < r.Size(); src++ {
			r.RecvFloats(src, 1)
		}
		return nil
	}
	r.SendFloats(0, 1, make([]float64, n))
	return nil
}

func TestCongestionSlowsOverlappingSends(t *testing.T) {
	t.Parallel()
	mk := func(congested bool) Report {
		rep, err := Run(JobConfig{
			Procs: 8, Nodes: 8, RankModel: testModel,
			Fabric:          congFabric(&topo.Torus{Dims: []int{8}}),
			Instrumentation: Instrumentation{Congestion: congested},
		}, fanIn)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base, cong := mk(false), mk(true)
	if cong.Makespan <= base.Makespan {
		t.Errorf("congested makespan %v not larger than contention-free %v",
			cong.Makespan, base.Makespan)
	}
	if base.Links != nil {
		t.Error("contention-free run carries a link report")
	}
	if cong.Links == nil || len(cong.Links.Links) == 0 {
		t.Fatal("congested run has no link report")
	}
	// Seven simultaneous flows converge on rank 0's ejection port.
	if got := cong.Links.MaxPeakFlows(); got != 7 {
		t.Errorf("max peak flows = %d, want 7", got)
	}
}

func TestCongestionSingleNodeUnchanged(t *testing.T) {
	t.Parallel()
	body := func(r *Rank) error {
		v := r.AllreduceScalar(float64(r.ID()), OpSum)
		r.SendFloats((r.ID()+1)%r.Size(), 9, []float64{v})
		r.RecvFloats((r.ID()-1+r.Size())%r.Size(), 9)
		return nil
	}
	run := func(congested bool) Report {
		rep, err := Run(JobConfig{
			Procs: 4, Nodes: 1, RankModel: testModel, Instrumentation: Instrumentation{Congestion: congested},
		}, body)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base, cong := run(false), run(true)
	if base.Makespan != cong.Makespan {
		t.Errorf("single-node makespan changed under Congestion: %v vs %v",
			base.Makespan, cong.Makespan)
	}
	if cong.Links != nil {
		t.Error("single-node congested run carries a link report")
	}
}

func TestCongestedRunsAreDeterministic(t *testing.T) {
	t.Parallel()
	run := func() Report {
		rep, err := Run(JobConfig{
			Procs: 16, Nodes: 8, RankModel: testModel,
			Fabric:          congFabric(topo.NewTofuD(8)),
			Instrumentation: Instrumentation{Congestion: true},
		}, func(r *Rank) error {
			buf := make([]float64, 1<<12)
			for i := range buf {
				buf[i] = float64(r.ID() + i)
			}
			r.Allreduce(buf, OpSum)
			r.SendFloats((r.ID()+1)%r.Size(), 5, buf[:1<<10])
			r.RecvFloats((r.ID()-1+r.Size())%r.Size(), 5)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("congested makespan not deterministic: %v vs %v", a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Links, b.Links) {
		t.Error("congested link reports differ across identical runs")
	}
}

func TestCongestionPreservesData(t *testing.T) {
	t.Parallel()
	// The replay must not change what the ranks compute — only when.
	run := func(congested bool) float64 {
		var got float64
		_, err := Run(JobConfig{
			Procs: 8, Nodes: 4, RankModel: testModel,
			Fabric:          congFabric(&topo.Torus{Dims: []int{4}}),
			Instrumentation: Instrumentation{Congestion: congested},
		}, func(r *Rank) error {
			v := r.AllreduceScalar(float64(r.ID()+1), OpSum)
			if r.ID() == 0 {
				got = v
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if base, cong := run(false), run(true); base != cong || base != 36 {
		t.Errorf("allreduce result changed under congestion: %v vs %v (want 36)", base, cong)
	}
}

// slowdown runs body both ways on a fabric and reports the congested-
// over-contention-free makespan ratio.
func slowdown(t *testing.T, f *netmodel.Fabric, procs, nodes int, body func(*Rank) error) float64 {
	t.Helper()
	run := func(congested bool) units.Duration {
		rep, err := Run(JobConfig{
			Procs: procs, Nodes: nodes, RankModel: testModel,
			Fabric: f, Instrumentation: Instrumentation{Congestion: congested},
		}, body)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	base := run(false)
	if base <= 0 {
		t.Fatal("zero baseline makespan")
	}
	return run(true).Seconds() / base.Seconds()
}

// TestAlltoallSuffersMoreThanHalo is the acceptance check for the
// contention model: on the same 32-node system an alltoall-heavy
// workload must slow down more than a nearest-neighbour halo exchange,
// and the alltoall penalty must be worse on an oversubscribed fat tree
// than on the TofuD torus (whose path diversity spreads the load).
func TestAlltoallSuffersMoreThanHalo(t *testing.T) {
	t.Parallel()
	const p = 32
	alltoall := func(r *Rank) error {
		send := make([][]float64, p)
		for i := range send {
			send[i] = make([]float64, 1<<13) // 64 KiB per pair
		}
		r.Alltoall(send)
		return nil
	}
	halo := func(r *Rank) error {
		buf := make([]float64, 1<<13)
		right, left := (r.ID()+1)%p, (r.ID()-1+p)%p
		r.SendFloats(right, 1, buf)
		r.SendFloats(left, 2, buf)
		r.RecvFloats(left, 1)
		r.RecvFloats(right, 2)
		return nil
	}
	topos := map[string]topo.Topology{
		"tofud":   topo.NewTofuD(p),
		"fattree": &topo.FatTree{NodesPerLeaf: 4, Uplinks: 2, Label: "oversub"},
	}
	slow := map[string]map[string]float64{}
	for name, tp := range topos {
		slow[name] = map[string]float64{
			"alltoall": slowdown(t, congFabric(tp), p, p, alltoall),
			"halo":     slowdown(t, congFabric(tp), p, p, halo),
		}
		t.Logf("%s: alltoall ×%.2f, halo ×%.2f", name, slow[name]["alltoall"], slow[name]["halo"])
	}
	for name, s := range slow {
		if s["alltoall"] <= s["halo"] {
			t.Errorf("%s: alltoall slowdown %.3f not larger than halo %.3f",
				name, s["alltoall"], s["halo"])
		}
	}
	if slow["fattree"]["alltoall"] <= slow["tofud"]["alltoall"] {
		t.Errorf("oversubscribed fat-tree alltoall slowdown %.3f not larger than TofuD %.3f",
			slow["fattree"]["alltoall"], slow["tofud"]["alltoall"])
	}
}

func TestLinkEventsReachSink(t *testing.T) {
	t.Parallel()
	sink := &MemorySink{}
	_, err := Run(JobConfig{
		Procs: 8, Nodes: 8, RankModel: testModel,
		Fabric: congFabric(&topo.Torus{Dims: []int{8}}),
		Label:  "cong", Instrumentation: Instrumentation{Congestion: true, Trace: sink},
	}, fanIn)
	if err != nil {
		t.Fatal(err)
	}
	var links, samples int
	endSeen := false
	for _, e := range sink.Events {
		switch e.Kind {
		case EvLink:
			links++
			if endSeen {
				t.Error("EvLink after EvJobEnd")
			}
			if e.Name == "" || e.Duration <= 0 {
				t.Errorf("malformed EvLink: %+v", e)
			}
		case EvLinkSample:
			samples++
			if e.Value <= 0 || e.Value > 1 {
				t.Errorf("EvLinkSample utilization %v out of (0, 1]", e.Value)
			}
		case EvJobEnd:
			endSeen = true
		}
	}
	if links == 0 || samples == 0 {
		t.Errorf("want link events and samples, got %d / %d", links, samples)
	}
	if !endSeen {
		t.Error("no EvJobEnd marker")
	}
}
