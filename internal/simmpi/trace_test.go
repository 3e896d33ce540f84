package simmpi

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"a64fxbench/internal/metrics"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
)

// traceJobs points c's trace sink at a list that keeps every job
// report the sink receives.
func traceJobs(c *JobConfig) *[]*Report {
	var jobs []*Report
	c.Trace = func(job *Report) { jobs = append(jobs, job) }
	return &jobs
}

func TestTraceTimeline(t *testing.T) {
	t.Parallel()
	c := cfg(2, 2)
	jobs := traceJobs(&c)
	c.Label = "trace-test"
	_, err := Run(c, func(r *Rank) error {
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
		if r.ID() == 0 {
			r.Send(1, 1, 8)
		} else {
			r.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(*jobs) != 1 {
		t.Fatalf("sink saw %d jobs, want 1", len(*jobs))
	}
	job := (*jobs)[0]
	if job.Label != "trace-test" {
		t.Errorf("job label = %q, want trace-test", job.Label)
	}
	tl := job.Events
	// 2 computes + 1 send + 1 recv.
	if len(tl) != 4 {
		t.Fatalf("timeline has %d events: %+v", len(tl), tl)
	}
	// Sorted by start time.
	for i := 1; i < len(tl); i++ {
		if tl[i].Start < tl[i-1].Start {
			t.Error("timeline not sorted")
		}
	}
	kinds := map[EventKind]int{}
	for _, e := range tl {
		kinds[e.Kind]++
		// Two ranks on two nodes: block placement puts rank r on node r.
		if e.Node != e.Rank {
			t.Errorf("rank %d event carries node %d", e.Rank, e.Node)
		}
	}
	if kinds[EvCompute] != 2 || kinds[EvSend] != 1 || kinds[EvRecv] != 1 {
		t.Errorf("kind counts: %v", kinds)
	}
	for _, e := range tl {
		switch e.Kind {
		case EvCompute:
			if e.Flops != units.MFlop {
				t.Errorf("compute event flops = %v, want %v", e.Flops, units.MFlop)
			}
		case EvSend, EvRecv:
			if e.Tag != 1 {
				t.Errorf("%s event tag = %d, want 1", e.Kind, e.Tag)
			}
		}
	}
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"compute", "send", "recv", "vecop"} {
		if !strings.Contains(out, needle) {
			t.Errorf("trace output missing %q:\n%s", needle, out)
		}
	}
}

// TestSinkReceivesRunReport pins what a trace sink observes: the report
// Run returns — the same label, makespan, link report and counters —
// plus the job's timeline, which the returned report no longer carries.
// An untraced run's report has no timeline either.
func TestSinkReceivesRunReport(t *testing.T) {
	t.Parallel()
	c := JobConfig{
		Procs: 8, Nodes: 8, CostModel: testModel(), Label: "observed",
		Fabric: congFabric(&topo.Torus{Dims: []int{8}}),
		Instrumentation: Instrumentation{
			Congestion: true,
			Counters:   &metrics.Config{Period: 10 * units.Microsecond},
		},
	}
	plain, err := Run(c, fanIn)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events != nil {
		t.Error("untraced run returned a timeline")
	}
	if plain.Label != "observed" {
		t.Errorf("untraced label = %q", plain.Label)
	}
	jobs := traceJobs(&c)
	rep, err := Run(c, fanIn)
	if err != nil {
		t.Fatal(err)
	}
	if len(*jobs) != 1 {
		t.Fatalf("sink saw %d jobs, want 1", len(*jobs))
	}
	job := (*jobs)[0]
	if len(job.Events) == 0 {
		t.Fatal("sink's report carries no timeline")
	}
	if rep.Events != nil {
		t.Error("Run returned the timeline it handed to the sink")
	}
	if job.Label != rep.Label || job.Makespan != rep.Makespan ||
		job.Links != rep.Links || job.Counters != rep.Counters {
		t.Errorf("sink saw label %q makespan %v links %p counters %p; Run returned %q %v %p %p",
			job.Label, job.Makespan, job.Links, job.Counters,
			rep.Label, rep.Makespan, rep.Links, rep.Counters)
	}
	if rep.Links == nil || rep.Counters == nil {
		t.Fatal("congested, counted job reports no links or counters")
	}
	if rep.Makespan != plain.Makespan {
		t.Errorf("tracing moved the makespan: %v vs %v", rep.Makespan, plain.Makespan)
	}
}

// rankLogs runs body traced, through the congestion replay when c asks
// for it, and returns the ranks with their event logs complete (open
// regions closed) but not yet merged.
func rankLogs(t *testing.T, c JobConfig, body func(*Rank) error) []*Rank {
	t.Helper()
	c.Trace = func(*Report) {}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	var cs *congestState
	if c.Congestion && c.Nodes > 1 {
		var err error
		if cs, err = recordAndSolve(c, body, nil); err != nil {
			t.Fatal(err)
		}
	}
	ranks, err := runRanks(c, body, cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranks {
		r.closeRegions()
	}
	return ranks
}

// TestMergeEqualsStableSort holds the timeline merge to its premise and
// its reference: every rank's log is nondecreasing in Start, and merging
// the logs equals a stable sort of their concatenation by (Start, Rank).
// It runs over the differential suite's bodies at every size, a noisy
// job, nested regions and a congested replay.
func TestMergeEqualsStableSort(t *testing.T) {
	t.Parallel()
	type job struct {
		name string
		c    JobConfig
		body func(*Rank) error
	}
	var jobs []job
	for _, b := range engineBodies {
		for _, sz := range engineSizes {
			if sz.procs >= b.min {
				jobs = append(jobs, job{fmt.Sprintf("%s/p%d_n%d", b.name, sz.procs, sz.nodes), cfg(sz.procs, sz.nodes),
					func(r *Rank) error { return b.body(r, batchedColls) }})
			}
		}
	}
	noisy := cfg(6, 2)
	noisy.NoiseProb, noisy.NoiseDuration = 0.4, 3*units.Microsecond
	jobs = append(jobs, job{"noise", noisy, func(r *Rank) error { return engineBodies[1].body(r, batchedColls) }})
	jobs = append(jobs, job{"regions", cfg(4, 2), func(r *Rank) error {
		r.Region("outer")
		for it := 0; it < 3; it++ {
			r.Region("inner")
			r.Compute(vecWork(100 * (1 + r.ID())))
			r.Allreduce(8)
			r.EndRegion()
		}
		r.Region("dangling") // closed at job end
		r.Compute(vecWork(50))
		return nil
	}})
	congested := JobConfig{
		Procs: 8, Nodes: 8, CostModel: testModel(),
		Fabric:          congFabric(&topo.Torus{Dims: []int{8}}),
		Instrumentation: Instrumentation{Congestion: true},
	}
	jobs = append(jobs, job{"congested", congested, fanIn})
	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			t.Parallel()
			ranks := rankLogs(t, j.c, j.body)
			var want Timeline
			for _, r := range ranks {
				for k := 1; k < len(r.events); k++ {
					if r.events[k].Start < r.events[k-1].Start {
						t.Fatalf("rank %d event %d starts at %v, before event %d at %v",
							r.id, k, r.events[k].Start, k-1, r.events[k-1].Start)
					}
				}
				want = append(want, r.events...)
			}
			if len(want) == 0 {
				t.Fatal("job recorded no events")
			}
			sort.SliceStable(want, func(a, b int) bool {
				if want[a].Start != want[b].Start {
					return want[a].Start < want[b].Start
				}
				return want[a].Rank < want[b].Rank
			})
			if got := mergeEvents(ranks); !reflect.DeepEqual(got, want) {
				t.Fatalf("merged timeline differs from the stable sort (%d vs %d events)", len(got), len(want))
			}
		})
	}
}

func TestTraceOffByDefault(t *testing.T) {
	t.Parallel()
	rep, err := Run(cfg(2, 1), func(r *Rank) error {
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
		// Region annotations must be free no-ops when tracing is off.
		r.Region("phase")
		r.EndRegion()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("degenerate untraced run")
	}
}

func TestTraceNoise(t *testing.T) {
	t.Parallel()
	c := cfg(1, 1)
	jobs := traceJobs(&c)
	c.NoiseProb = 1.0
	c.NoiseDuration = units.Second
	_, err := Run(c, func(r *Rank) error {
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range (*jobs)[0].Events {
		if e.Kind == EvNoise && e.Duration == units.Second {
			found = true
		}
	}
	if !found {
		t.Error("noise event not traced")
	}
}

func TestRegions(t *testing.T) {
	t.Parallel()
	c := cfg(2, 1)
	jobs := traceJobs(&c)
	_, err := Run(c, func(r *Rank) error {
		r.Region("outer")
		r.Region("inner")
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
		r.EndRegion()
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.DotProduct, Flops: units.MFlop})
		r.EndRegion()
		r.Region("dangling") // closed automatically at job end
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	type rkey struct {
		rank int
		kind EventKind
		name string
	}
	counts := map[rkey]int{}
	var innerSpan, outerSpan units.Duration
	for _, e := range (*jobs)[0].Events {
		switch e.Kind {
		case EvRegionBegin, EvRegionEnd:
			counts[rkey{e.Rank, e.Kind, e.Name}]++
			if e.Rank == 0 && e.Kind == EvRegionEnd {
				switch e.Name {
				case "inner":
					innerSpan = e.Duration
				case "outer":
					outerSpan = e.Duration
				}
			}
		}
	}
	for rank := 0; rank < 2; rank++ {
		for _, name := range []string{"outer", "inner", "dangling"} {
			if counts[rkey{rank, EvRegionBegin, name}] != 1 {
				t.Errorf("rank %d: region %q begins = %d, want 1",
					rank, name, counts[rkey{rank, EvRegionBegin, name}])
			}
			if counts[rkey{rank, EvRegionEnd, name}] != 1 {
				t.Errorf("rank %d: region %q ends = %d, want 1",
					rank, name, counts[rkey{rank, EvRegionEnd, name}])
			}
		}
	}
	if innerSpan <= 0 || outerSpan < innerSpan {
		t.Errorf("region spans inconsistent: inner %v, outer %v", innerSpan, outerSpan)
	}
}

func TestEndRegionUnmatchedPanics(t *testing.T) {
	t.Parallel()
	c := cfg(1, 1)
	c.Trace = func(*Report) {}
	_, err := Run(c, func(r *Rank) error {
		r.EndRegion()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "EndRegion") {
		t.Fatalf("unmatched EndRegion should surface as a panic error, got %v", err)
	}
}

func TestMultipleJobsOneSink(t *testing.T) {
	t.Parallel()
	c := cfg(1, 1)
	jobs := traceJobs(&c)
	for i := 0; i < 2; i++ {
		if _, err := Run(c, func(r *Rank) error {
			r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(*jobs) != 2 {
		t.Fatalf("want 2 jobs, got %d", len(*jobs))
	}
	for _, job := range *jobs {
		// Default label names the rank count.
		if job.Label != "job p=1" {
			t.Errorf("default label = %q", job.Label)
		}
		if len(job.Events) != 1 {
			t.Errorf("job carries %d events, want its 1 compute", len(job.Events))
		}
	}
}

func TestEventKindString(t *testing.T) {
	t.Parallel()
	if EvCompute.String() != "compute" || EventKind(99).String() != "event(99)" {
		t.Error("EventKind names wrong")
	}
	for _, k := range []EventKind{EvSend, EvRecv, EvNoise, EvRegionBegin, EvRegionEnd} {
		if strings.HasPrefix(k.String(), "event(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}
