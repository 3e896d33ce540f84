package simmpi

import (
	"reflect"
	"regexp"
	"testing"

	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/telemetry"
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

// fanIn is a many-to-one workload: every rank streams a 1 MiB message
// to rank 0, so rank 0's ejection port is a guaranteed bottleneck.
func fanIn(r *Rank) error {
	if r.ID() == 0 {
		for src := 1; src < r.Size(); src++ {
			r.Recv(src, 1)
		}
		return nil
	}
	r.Send(0, 1, units.MiB)
	return nil
}

func TestCongestionSlowsOverlappingSends(t *testing.T) {
	t.Parallel()
	mk := func(congested bool) Report {
		rep, err := Run(JobConfig{
			Procs: 8, Nodes: 8, CostModel: testModel(),
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
	worst := 0
	for _, l := range cong.Links.Links {
		worst = max(worst, l.PeakFlows)
	}
	if worst != 7 {
		t.Errorf("max peak flows = %d, want 7", worst)
	}
}

func TestCongestionSingleNodeUnchanged(t *testing.T) {
	t.Parallel()
	body := func(r *Rank) error {
		r.Allreduce(8)
		r.Send((r.ID()+1)%r.Size(), 9, 8)
		r.Recv((r.ID()-1+r.Size())%r.Size(), 9)
		return nil
	}
	run := func(congested bool) Report {
		rep, err := Run(JobConfig{
			Procs: 4, Nodes: 1, CostModel: testModel(), Instrumentation: Instrumentation{Congestion: congested},
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
			Procs: 16, Nodes: 8, CostModel: testModel(),
			Fabric:          congFabric(topo.NewTofuD(8)),
			Instrumentation: Instrumentation{Congestion: true},
		}, func(r *Rank) error {
			r.Allreduce(32 * units.KiB)
			r.Send((r.ID()+1)%r.Size(), 5, 8*units.KiB)
			r.Recv((r.ID()-1+r.Size())%r.Size(), 5)
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

// slowdown runs body both ways on a fabric and reports the congested-
// over-contention-free makespan ratio.
func slowdown(t *testing.T, f *netmodel.Fabric, procs, nodes int, body func(*Rank) error) float64 {
	t.Helper()
	run := func(congested bool) units.Duration {
		rep, err := Run(JobConfig{
			Procs: procs, Nodes: nodes, CostModel: testModel(),
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
		r.Alltoall(64 * units.KiB) // per pair
		return nil
	}
	halo := func(r *Rank) error {
		right, left := (r.ID()+1)%p, (r.ID()-1+p)%p
		r.Send(right, 1, 64*units.KiB)
		r.Send(left, 2, 64*units.KiB)
		r.Recv(left, 1)
		r.Recv(right, 2)
		return nil
	}
	topos := map[string]topo.Topology{
		"tofud":   topo.NewTofuD(p),
		"fattree": &topo.FatTree{NodesPerLeaf: 4, Uplinks: 2},
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

// TestLinkReportReachesSink checks that a traced congested job hands
// its sink a link report whose busiest links carry utilization series.
func TestLinkReportReachesSink(t *testing.T) {
	t.Parallel()
	c := JobConfig{
		Procs: 8, Nodes: 8, CostModel: testModel(),
		Fabric: congFabric(&topo.Torus{Dims: []int{8}}),
		Label:  "cong", Instrumentation: Instrumentation{Congestion: true},
	}
	jobs := traceJobs(&c)
	if _, err := Run(c, fanIn); err != nil {
		t.Fatal(err)
	}
	links := (*jobs)[0].Links
	if links == nil || len(links.Links) == 0 {
		t.Fatal("sink's report carries no link report")
	}
	var busy int
	for _, ls := range links.Links {
		if ls.Name == "" || ls.Busy <= 0 {
			t.Errorf("malformed link: %+v", ls)
		}
		for _, u := range ls.Series {
			if u < 0 || u > 1 {
				t.Errorf("link %s utilization %v out of [0, 1]", ls.Name, u)
			}
			if u > 0 {
				busy++
			}
		}
	}
	if busy == 0 || links.BucketWidth <= 0 {
		t.Errorf("want busy utilization buckets, got %d at width %v", busy, links.BucketWidth)
	}
}

// TestCongestedReplayDivergenceFails drives bodies that read a counter
// shared by both passes, so pass two's sends differ from the ones pass
// one recorded. Replay looks dilations up by send position, so each
// kind of divergence must fail the job, not borrow another flow's
// dilation.
func TestCongestedReplayDivergenceFails(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		// exchange reports how many ring exchanges a rank makes and
		// their size, given whether this is the replay pass.
		exchange func(replay bool) (rounds int, bytes units.Bytes)
		want     string // regexp
	}{
		{"size", func(replay bool) (int, units.Bytes) {
			if replay {
				return 2, 16384
			}
			return 2, 8192
		}, `^simmpi: congestion replay diverged: rank \d send 0 is 16384 B to rank \d, tag 3; recorded 8192 B to rank \d, tag 3$`},
		{"overrun", func(replay bool) (int, units.Bytes) {
			if replay {
				return 3, 8192
			}
			return 2, 8192
		}, `^simmpi: congestion replay diverged: rank \d send 2 \(8192 B to rank \d, tag 3\) is beyond the 2 sends recorded$`},
		{"underrun", func(replay bool) (int, units.Bytes) {
			if replay {
				return 1, 8192
			}
			return 2, 8192
		}, `^simmpi: congestion replay diverged: rank 0 send 1 never happened \(2 sends recorded\)$`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const p = 4
			calls := 0 // rank bodies run one at a time, so no lock
			_, err := Run(JobConfig{
				Procs: p, Nodes: p, CostModel: testModel(),
				Fabric:          congFabric(&topo.Torus{Dims: []int{p}}),
				Instrumentation: Instrumentation{Congestion: true},
			}, func(r *Rank) error {
				calls++
				rounds, n := tc.exchange(calls > p)
				for i := 0; i < rounds; i++ {
					r.Send((r.ID()+1)%p, 3, n)
					r.Recv((r.ID()-1+p)%p, 3)
				}
				return nil
			})
			if err == nil || !regexp.MustCompile(tc.want).MatchString(err.Error()) {
				t.Fatalf("err = %v, want match for %s", err, tc.want)
			}
		})
	}
}

// TestReplaySolveSpanAttrs pins what the replay-solve span tells a slow
// request's reader: the solve's size (flows, contended links, fluid
// events) and whether it built utilization series, which only a traced
// job does.
func TestReplaySolveSpanAttrs(t *testing.T) {
	t.Parallel()
	for _, traced := range []bool{false, true} {
		tr := telemetry.NewTrace("request")
		inst := Instrumentation{Congestion: true, Telemetry: tr.Root()}
		if traced {
			inst.Trace = func(*Report) {}
		}
		rep, err := Run(JobConfig{
			Procs: 8, Nodes: 8, CostModel: testModel(), Label: "fan-in",
			Fabric: congFabric(&topo.Torus{Dims: []int{8}}), Instrumentation: inst,
		}, fanIn)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		solve := tr.Tree().Find("replay-solve")
		if solve == nil {
			t.Fatal("no replay-solve span")
		}
		want := map[string]any{"flows": 7, "links": len(rep.Links.Links), "series": traced}
		for k, v := range want {
			if solve.Attrs[k] != v {
				t.Errorf("traced=%v: replay-solve %s = %v, want %v", traced, k, solve.Attrs[k], v)
			}
		}
		if ev, _ := solve.Attrs["events"].(int); ev < 1 {
			t.Errorf("traced=%v: replay-solve events = %v, want ≥ 1", traced, solve.Attrs["events"])
		}
		hasSeries := false
		for _, l := range rep.Links.Links {
			hasSeries = hasSeries || l.Series != nil
		}
		if hasSeries != traced {
			t.Errorf("traced=%v: link report carries series = %v", traced, hasSeries)
		}
	}
}
