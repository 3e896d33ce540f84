package obs_test

import (
	"sort"
	"strings"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/nekbone"
	"a64fxbench/internal/obs"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// checkPathInvariants asserts the two critical-path consistency bounds:
// the path can never exceed the makespan, and it can never undercut the
// busiest rank's recorded event time (every rank's events form one chain
// of the DAG).
func checkPathInvariants(t *testing.T, label string, jobs []*simmpi.Report, rep simmpi.Report) *obs.CriticalPath {
	t.Helper()
	job := onlyJob(t, jobs)
	cp, err := obs.ComputeCriticalPath(job)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if cp.Length <= 0 || cp.Steps == 0 {
		t.Fatalf("%s: degenerate path %+v", label, cp)
	}
	if cp.Length > rep.Makespan {
		t.Errorf("%s: path %v exceeds makespan %v", label, cp.Length, rep.Makespan)
	}
	// Busiest rank: total recorded event time (busy work plus recv
	// waits) per rank is a single DAG chain, so the path must cover it.
	perRank := map[int]units.Duration{}
	for _, e := range job.Events {
		switch e.Kind {
		case simmpi.EvCompute, simmpi.EvSend, simmpi.EvRecv, simmpi.EvNoise:
			perRank[e.Rank] += e.Duration
		}
	}
	var busiest units.Duration
	for _, d := range perRank {
		if d > busiest {
			busiest = d
		}
	}
	if cp.Length < busiest {
		t.Errorf("%s: path %v undercuts busiest rank chain %v", label, cp.Length, busiest)
	}
	// The clock-level busy time is a lower bound too (it excludes
	// waits, which the chain includes).
	var maxBusy units.Duration
	for _, rr := range rep.Ranks {
		if rr.Busy > maxBusy {
			maxBusy = rr.Busy
		}
	}
	if cp.Length < maxBusy {
		t.Errorf("%s: path %v undercuts busiest rank busy time %v", label, cp.Length, maxBusy)
	}
	if cp.Fraction <= 0 || cp.Fraction > 1.0000001 {
		t.Errorf("%s: fraction %v out of (0,1]", label, cp.Fraction)
	}
	sum := units.Duration(0)
	for _, p := range cp.Phases {
		sum += p.Time
	}
	if sum != cp.Length {
		t.Errorf("%s: phase contributions %v don't sum to path %v", label, sum, cp.Length)
	}
	return cp
}

// TestCriticalPathHPCGMultiNode runs the annotated HPCG benchmark on a
// 2-node A64FX job and checks the path invariants (ISSUE acceptance:
// hpcg multi-node).
func TestCriticalPathHPCGMultiNode(t *testing.T) {
	t.Parallel()
	sink, jobs := keepJobs()
	res, err := hpcg.Run(hpcg.Config{
		System: arch.MustGet(arch.A64FX),
		Nodes:  2,
		NX:     8, NY: 8, NZ: 8,
		Levels:          2,
		Iterations:      3,
		Instrumentation: simmpi.Instrumentation{Trace: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := checkPathInvariants(t, "hpcg", *jobs, res.Report)
	// Phase attribution must surface the solver-level annotations.
	foundRegion := false
	for _, p := range cp.Phases {
		if len(p.Label) > 0 && p.Label[0] != ':' &&
			(containsRegion(p.Label, "cg-iter") || containsRegion(p.Label, "vcycle")) {
			foundRegion = true
		}
	}
	if !foundRegion {
		t.Errorf("no region-labelled phases on the path: %+v", cp.Phases)
	}
}

func containsRegion(label, region string) bool {
	for i := 0; i+len(region) <= len(label); i++ {
		if label[i:i+len(region)] == region {
			return true
		}
	}
	return false
}

// TestCriticalPathNekboneMultiNode runs the annotated Nekbone benchmark
// (noise injection included) on a 4-node job and checks the invariants
// (ISSUE acceptance: nekbone multi-node).
func TestCriticalPathNekboneMultiNode(t *testing.T) {
	t.Parallel()
	sink, jobs := keepJobs()
	res, err := nekbone.Run(nekbone.Config{
		System:          arch.MustGet(arch.A64FX),
		Nodes:           4,
		CoresPerNode:    4,
		ElementsPerRank: 4,
		Order:           4,
		Iterations:      10,
		Instrumentation: simmpi.Instrumentation{Trace: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPathInvariants(t, "nekbone", *jobs, res.Report)
}

// TestCriticalPathSerialChain checks the exact path on a hand-built
// two-rank pipeline: rank 0 computes then sends; rank 1's recv waits on
// it. The path is rank 0's chain plus the post-overlap tail of the recv
// and rank 1's final compute.
func TestCriticalPathSynthetic(t *testing.T) {
	t.Parallel()
	job, rep := fourRankJob(t)
	cp, err := obs.ComputeCriticalPath(job)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Length > rep.Makespan {
		t.Errorf("path %v > makespan %v", cp.Length, rep.Makespan)
	}
	// The job is perfectly balanced, so the path should be nearly the
	// whole makespan (the send/recv overheads differ at the margins).
	if cp.Fraction < 0.5 {
		t.Errorf("balanced job path fraction %.3f suspiciously low", cp.Fraction)
	}
}

// TestCriticalPathRegionLabels: on a one-rank chain every event is on
// the path, so the phases name every event's label: the open region
// path joined by "/" and a colon before the kind or class, including
// empty region names, or the bare kind outside regions.
func TestCriticalPathRegionLabels(t *testing.T) {
	t.Parallel()
	cls := perfmodel.VectorOp.String()
	var events simmpi.Timeline
	at := vclock.Time(0)
	step := func(kind simmpi.EventKind, name string) {
		e := simmpi.Event{Kind: kind, Start: at, Peer: -1, Class: perfmodel.VectorOp, Name: name}
		if kind != simmpi.EvRegionBegin && kind != simmpi.EvRegionEnd {
			e.Duration = units.Microsecond
			at = e.Finish()
		}
		events = append(events, e)
	}
	step(simmpi.EvCompute, "")
	step(simmpi.EvRegionBegin, "")
	step(simmpi.EvCompute, "")
	step(simmpi.EvRegionBegin, "a")
	step(simmpi.EvNoise, "")
	step(simmpi.EvRegionEnd, "a")
	step(simmpi.EvRegionEnd, "")
	step(simmpi.EvRegionBegin, "x")
	step(simmpi.EvRegionBegin, "y")
	step(simmpi.EvCompute, "")
	step(simmpi.EvRegionEnd, "y")
	step(simmpi.EvNoise, "")
	step(simmpi.EvRegionEnd, "x")
	cp, err := obs.ComputeCriticalPath(&simmpi.Report{Makespan: units.Duration(at), Events: events})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range cp.Phases {
		got = append(got, p.Label)
	}
	sort.Strings(got)
	want := []string{"/a:noise", ":" + cls, cls, "x/y:" + cls, "x:noise"}
	sort.Strings(want)
	if strings.Join(got, " | ") != strings.Join(want, " | ") {
		t.Fatalf("phase labels %q, want %q", got, want)
	}
}
