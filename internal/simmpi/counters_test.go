// Virtual PMU tests: the counter subsystem must be bit-deterministic
// across goroutine schedules (like everything else in the runtime),
// result-neutral (enabling it changes no simulated outcome), and
// internally consistent (the time counters partition busy time exactly).
package simmpi_test

import (
	"encoding/json"
	"runtime"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/nekbone"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// countedJob runs a 6-rank, 2-node job exercising every hook the PMU
// has: compute across classes, noise, point-to-point, Elapse, and a mix
// of collectives (including the nested ones — ReduceScatter on a
// non-power-of-two size calls Reduce internally; only the outermost
// call may attribute time).
func countedJob(t *testing.T, cfg *metrics.Config) simmpi.Report {
	t.Helper()
	return countedJobModel(t, cfg, "")
}

// countedJobModel is countedJob under an explicit pricing model, so the
// ECM-mode tests exercise the identical rank body.
func countedJobModel(t *testing.T, cfg *metrics.Config, model perfmodel.Model) simmpi.Report {
	t.Helper()
	sys := arch.MustGet(arch.A64FX)
	rankModel := sys.PerRankModel(3, 1)
	jc := simmpi.JobConfig{
		Procs: 6, Nodes: 2, ThreadsPerRank: 1,
		RankModel: func(int) *perfmodel.CostModel { return rankModel },
		Fabric:    sys.NewFabric(2),
		NoiseProb: 0.2, NoiseDuration: 5 * units.Microsecond,
		Label:           "counted-6rank",
		Instrumentation: simmpi.Instrumentation{Counters: cfg, Model: model},
	}
	spmv := perfmodel.WorkProfile{Class: perfmodel.SpMV, Flops: 2 * units.MFlop, Bytes: 12 * units.MiB}
	gemm := perfmodel.WorkProfile{Class: perfmodel.SmallGEMM, Flops: 40 * units.MFlop, Bytes: 2 * units.MiB}
	rep, err := simmpi.Run(jc, func(r *simmpi.Rank) error {
		r.Elapse(30 * units.Microsecond)
		for it := 0; it < 3; it++ {
			r.Region("iter")
			r.Compute(spmv)
			r.Compute(gemm)
			right := (r.ID() + 1) % r.Size()
			left := (r.ID() - 1 + r.Size()) % r.Size()
			r.Send(right, 7, nil, 96*units.KiB)
			r.Recv(left, 7)
			r.AllreduceScalar(float64(r.ID()), simmpi.OpSum)
			r.Bcast(0, []float64{1, 2, 3})
			r.ReduceScatter(make([]float64, r.Size()), simmpi.OpMax)
			r.ExScan([]float64{1}, simmpi.OpSum)
			r.EndRegion()
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg != nil && rep.Counters == nil {
		t.Fatal("counted job produced no Counters")
	}
	return rep
}

// TestCountersDeterministicAcrossGOMAXPROCS serializes the full counter
// state — per-rank finals, sampled series (with a tiny MaxSamples so
// decimation triggers), and peer stats — and demands byte-identical
// JSON across the scheduler-width sweep. Must not run in parallel:
// GOMAXPROCS is process-global.
func TestCountersDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func() []byte {
		rep := countedJob(t, &metrics.Config{Period: 20 * units.Microsecond, MaxSamples: 8})
		b, err := json.Marshal(rep.Counters)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := run()
	var sampled int
	var jc metrics.JobCounters
	if err := json.Unmarshal(ref, &jc); err != nil {
		t.Fatal(err)
	}
	for _, rc := range jc.Ranks {
		sampled += len(rc.Samples)
		if len(rc.Samples) > 8 {
			t.Fatalf("rank %d holds %d samples, cap 8", rc.Rank, len(rc.Samples))
		}
		for i, s := range rc.Samples {
			if s.At%rc.Period != 0 {
				t.Fatalf("rank %d sample %d at %v off the %v grid", rc.Rank, i, s.At, rc.Period)
			}
		}
	}
	if sampled == 0 {
		t.Fatal("no samples recorded; the series assertions are vacuous")
	}
	for i, n := range gomaxSchedule {
		runtime.GOMAXPROCS(n)
		if got := run(); string(got) != string(ref) {
			t.Fatalf("run %d (GOMAXPROCS=%d): counter state diverged", i, n)
		}
	}
}

// TestCountersResultNeutral pins the tentpole contract: enabling the
// PMU changes no simulated result — same makespan, flops, traffic and
// per-rank finish times.
func TestCountersResultNeutral(t *testing.T) {
	t.Parallel()
	off := countedJob(t, nil)
	on := countedJob(t, &metrics.Config{})
	if off.Makespan != on.Makespan || off.TotalFlops != on.TotalFlops ||
		off.TotalMsgs != on.TotalMsgs || off.TotalBytesSent != on.TotalBytesSent {
		t.Fatalf("counters changed the result:\n off %+v\n on  %+v", off, on)
	}
	for i := range off.Ranks {
		if off.Ranks[i].Finish != on.Ranks[i].Finish ||
			off.Ranks[i].Busy != on.Ranks[i].Busy ||
			off.Ranks[i].Wait != on.Ranks[i].Wait {
			t.Fatalf("rank %d diverged with counters on", i)
		}
	}
}

// countedJob runs each rank body once per invocation; the test relies
// on countedJob(nil) leaving Report.Counters nil.
func TestCountersNilConfigDisables(t *testing.T) {
	t.Parallel()
	if rep := countedJobNoCheck(t); rep.Counters != nil {
		t.Fatal("nil Config should disable the PMU")
	}
}

func countedJobNoCheck(t *testing.T) simmpi.Report {
	t.Helper()
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(1, 1)
	rep, err := simmpi.Run(simmpi.JobConfig{
		Procs: 1, Nodes: 1, ThreadsPerRank: 1,
		RankModel: func(int) *perfmodel.CostModel { return model },
		Fabric:    sys.NewFabric(1),
	}, func(r *simmpi.Rank) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCounterTimesPartitionBusy checks the accounting identity on every
// rank: the model-attributed time counters sum exactly to the clock's
// busy time, and the network-stall counter equals its wait time. Every
// addend is an integer nanosecond count far below 2^53, so float64
// accumulation is exact and the comparison can demand equality.
func TestCounterTimesPartitionBusy(t *testing.T) {
	t.Parallel()
	rep := countedJob(t, &metrics.Config{})
	checkBusyPartition(t, rep)
	// Job-level identities against the report's own accounting.
	tot := rep.Counters.Totals()
	var flops float64
	for _, c := range perfmodel.KernelClasses() {
		flops += tot[metrics.FlopsFor(c)]
	}
	if flops != float64(rep.TotalFlops) {
		t.Errorf("flops counters %v, report %v", flops, rep.TotalFlops)
	}
	if tot[metrics.SentMsgs] != float64(rep.TotalMsgs) {
		t.Errorf("sent msgs %v, report %v", tot[metrics.SentMsgs], rep.TotalMsgs)
	}
	if tot[metrics.SentBytes] != float64(rep.TotalBytesSent) {
		t.Errorf("sent bytes %v, report %v", tot[metrics.SentBytes], rep.TotalBytesSent)
	}
	if tot[metrics.RecvMsgs] != tot[metrics.SentMsgs] || tot[metrics.RecvBytes] != tot[metrics.SentBytes] {
		t.Errorf("recv totals diverge from sent: %v/%v msgs, %v/%v bytes",
			tot[metrics.RecvMsgs], tot[metrics.SentMsgs], tot[metrics.RecvBytes], tot[metrics.SentBytes])
	}
	// The cache hierarchy invariant: L1 ≥ L2 ≥ DRAM traffic.
	if tot[metrics.MemL1] < tot[metrics.MemL2] || tot[metrics.MemL2] < tot[metrics.MemDRAM] {
		t.Errorf("cache traffic not monotone: L1 %v, L2 %v, DRAM %v",
			tot[metrics.MemL1], tot[metrics.MemL2], tot[metrics.MemDRAM])
	}
	// Collective attribution must be present (the body runs six kinds)
	// and bounded by total busy+wait time on any single rank — nested
	// collectives must not double-count.
	var coll float64
	for c := metrics.Collective(0); c < metrics.NumCollectives(); c++ {
		coll += tot[metrics.CollTime(c)]
	}
	if coll <= 0 {
		t.Error("no collective time attributed")
	}
	var busyWait float64
	for i := range rep.Ranks {
		busyWait += float64(rep.Ranks[i].Busy + rep.Ranks[i].Wait)
	}
	if coll > busyWait {
		t.Errorf("collective time %v exceeds total busy+wait %v (double counting?)", coll, busyWait)
	}
}

// checkBusyPartition asserts the uniform busy-time identity that holds
// under BOTH pricing models:
//
//	busy = time.flops + stall.mem + stall.call + stall.noise
//	     + net.inject + time.other
//	     + ecm.l1 + ecm.l2 + ecm.mem − ecm.hidden
//
// A roofline job leaves every ecm.* counter at zero, so the extended
// formula degrades to the classic partition; an ECM job leaves
// stall.mem at zero and carries the per-level transfer phases instead.
func checkBusyPartition(t *testing.T, rep simmpi.Report) {
	t.Helper()
	for i, rc := range rep.Counters.Ranks {
		busy := rc.Value(metrics.TimeFlops) + rc.Value(metrics.StallMem) +
			rc.Value(metrics.StallCall) + rc.Value(metrics.StallNoise) +
			rc.Value(metrics.NetInject) + rc.Value(metrics.TimeOther) +
			rc.Value(metrics.ECML1) + rc.Value(metrics.ECML2) +
			rc.Value(metrics.ECMMem) - rc.Value(metrics.ECMHidden)
		if want := float64(rep.Ranks[i].Busy); busy != want {
			t.Errorf("rank %d: time counters sum %v, busy %v", i, busy, want)
		}
		if wait := rc.Value(metrics.StallNet); wait != float64(rep.Ranks[i].Wait) {
			t.Errorf("rank %d: stall.net %v, wait %v", i, wait, rep.Ranks[i].Wait)
		}
	}
}

// TestCounterTimesPartitionBusyECM is the ECM twin of the partition
// test: the same job priced by the ECM model must satisfy the extended
// identity with real per-level phase counters, keep the roofline-only
// stall.mem at zero, and preserve the cache hierarchy invariant.
func TestCounterTimesPartitionBusyECM(t *testing.T) {
	t.Parallel()
	rep := countedJobModel(t, &metrics.Config{}, perfmodel.ModelECM)
	checkBusyPartition(t, rep)
	tot := rep.Counters.Totals()
	if tot[metrics.ECML1] <= 0 || tot[metrics.ECML2] <= 0 || tot[metrics.ECMMem] <= 0 {
		t.Errorf("ECM job recorded no per-level phases: L1 %v, L2 %v, mem %v",
			tot[metrics.ECML1], tot[metrics.ECML2], tot[metrics.ECMMem])
	}
	if tot[metrics.StallMem] != 0 {
		t.Errorf("ECM job attributed roofline stall.mem %v, want 0", tot[metrics.StallMem])
	}
	if tot[metrics.MemL1] < tot[metrics.MemL2] || tot[metrics.MemL2] < tot[metrics.MemDRAM] {
		t.Errorf("cache traffic not monotone: L1 %v, L2 %v, DRAM %v",
			tot[metrics.MemL1], tot[metrics.MemL2], tot[metrics.MemDRAM])
	}
	// The model changes times, never metered work: flops and traffic
	// must match the roofline job byte-for-byte, the makespan must not.
	roofline := countedJob(t, &metrics.Config{})
	if rep.TotalFlops != roofline.TotalFlops {
		t.Errorf("ECM flops %v differ from roofline %v", rep.TotalFlops, roofline.TotalFlops)
	}
	if rep.Makespan == roofline.Makespan {
		t.Error("ECM makespan equals roofline makespan — model not applied")
	}
}

// TestNekboneCountersDeterministic runs the public benchmark surface
// with counters through the same scheduler sweep used by the core
// determinism tests, hashing the serialized counter report.
func TestNekboneCountersDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func() string {
		res, err := nekbone.Run(nekbone.Config{
			System: arch.MustGet(arch.A64FX), Nodes: 4,
			ElementsPerRank: 8, Order: 4, Iterations: 12,
			Instrumentation: simmpi.Instrumentation{Counters: &metrics.Config{Period: 50 * units.Microsecond, MaxSamples: 16}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Counters == nil {
			t.Fatal("nekbone dropped the counter config")
		}
		b, err := json.Marshal(res.Report.Counters)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ref := run()
	for i, n := range []int{1, 8, 2, 16, 1} {
		runtime.GOMAXPROCS(n)
		if got := run(); got != ref {
			t.Fatalf("run %d (GOMAXPROCS=%d): nekbone counters diverged", i, n)
		}
	}
}
