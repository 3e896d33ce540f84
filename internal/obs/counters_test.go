package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/obs"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// countedFourRankJob is fourRankJob with the virtual PMU on.
func countedFourRankJob(t *testing.T) (obs.JobTrace, simmpi.Report) {
	t.Helper()
	return countedFourRankJobModel(t, "")
}

// countedFourRankJobModel is countedFourRankJob under an explicit
// pricing model so the ECM attribution tests run the identical body.
func countedFourRankJobModel(t *testing.T, pm perfmodel.Model) (obs.JobTrace, simmpi.Report) {
	t.Helper()
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(2, 1)
	sink := &simmpi.MemorySink{}
	cfg := simmpi.JobConfig{
		Procs: 4, Nodes: 2, ThreadsPerRank: 1,
		RankModel: func(int) *perfmodel.CostModel { return model },
		Fabric:    sys.NewFabric(2),
		Label:     "counted-4rank",
		Instrumentation: simmpi.Instrumentation{
			Trace:    sink,
			Counters: &metrics.Config{Period: 50 * units.Microsecond},
			Model:    pm,
		},
	}
	work := perfmodel.WorkProfile{
		Class: perfmodel.SpMV,
		Flops: 10 * units.MFlop,
		Bytes: 8 * units.MiB,
	}
	rep, err := simmpi.Run(cfg, func(r *simmpi.Rank) error {
		for it := 0; it < 2; it++ {
			r.Region("iter")
			r.Region("stream")
			r.Compute(work)
			r.EndRegion()
			right := (r.ID() + 1) % r.Size()
			left := (r.ID() - 1 + r.Size()) % r.Size()
			r.Send(right, 5, nil, 64*units.KiB)
			r.Recv(left, 5)
			r.AllreduceScalar(1, simmpi.OpSum)
			r.EndRegion()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := obs.SplitJobs(sink.Events)
	if len(jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(jobs))
	}
	return jobs[0], rep
}

func TestCounterReportTotalsMatchRuntime(t *testing.T) {
	t.Parallel()
	jt, rep := countedFourRankJob(t)
	cr := obs.BuildCounterReport(jt, obs.A64FXPeaks(jt))
	if cr == nil {
		t.Fatal("counted trace produced no counter report")
	}
	// Reconstructed totals must equal the runtime's own accounting: the
	// EvCounter events carry the exact per-rank finals.
	tot := rep.Counters.Totals()
	for id, want := range tot {
		name := metrics.ID(id).Def().Name
		if got := cr.Total(name); got != want {
			t.Errorf("%s: trace total %v, runtime %v", name, got, want)
		}
	}
	if cr.Ranks != 4 || cr.Nodes != 2 {
		t.Errorf("shape %d ranks / %d nodes, want 4/2", cr.Ranks, cr.Nodes)
	}
	if cr.Derived.GFlops <= 0 || cr.Derived.DRAMGBps <= 0 {
		t.Errorf("derived rates not positive: %+v", cr.Derived)
	}
	if cr.Derived.FlopUtil <= 0 || cr.Derived.FlopUtil > 1 {
		t.Errorf("flop utilization out of range: %v", cr.Derived.FlopUtil)
	}
}

// TestPhaseCountersSumToTotals is the attribution property: every
// compute/send/noise event lands in exactly one phase, so the per-phase
// columns must sum to the job totals.
func TestPhaseCountersSumToTotals(t *testing.T) {
	t.Parallel()
	jt, rep := countedFourRankJob(t)
	cr := obs.BuildCounterReport(jt, obs.A64FXPeaks(jt))
	if cr == nil || len(cr.Phases) == 0 {
		t.Fatal("no phase attribution")
	}
	labels := map[string]bool{}
	var flops units.Flops
	var mem, sent units.Bytes
	var msgs int64
	var busyTime, wait units.Duration
	for _, p := range cr.Phases {
		if labels[p.Label] {
			t.Fatalf("duplicate phase label %q", p.Label)
		}
		labels[p.Label] = true
		flops += p.Flops
		mem += p.MemBytes
		msgs += p.Msgs
		sent += p.SentBytes
		busyTime += p.Time
		wait += p.Wait
	}
	if !labels["iter/stream"] || !labels["iter"] {
		t.Fatalf("expected region paths missing: %v", labels)
	}
	if flops != rep.TotalFlops {
		t.Errorf("phase flops %v, job %v", flops, rep.TotalFlops)
	}
	if msgs != rep.TotalMsgs || sent != rep.TotalBytesSent {
		t.Errorf("phase traffic %d/%v, job %d/%v", msgs, sent, rep.TotalMsgs, rep.TotalBytesSent)
	}
	tot := rep.Counters.Totals()
	if got, want := float64(mem), tot[metrics.MemDRAM]; got != want {
		t.Errorf("phase mem bytes %v, counter %v", got, want)
	}
	if got, want := float64(wait), tot[metrics.StallNet]; got != want {
		t.Errorf("phase wait %v, stall.net %v", got, want)
	}
	// Phase busy time covers the event-visible time counters (Elapse is
	// not an event, so time.other.ns is deliberately absent here). The
	// ECM terms extend the identity uniformly: a roofline job leaves
	// every ecm.* counter at zero.
	want := tot[metrics.TimeFlops] + tot[metrics.StallMem] + tot[metrics.StallCall] +
		tot[metrics.StallNoise] + tot[metrics.NetInject] +
		tot[metrics.ECML1] + tot[metrics.ECML2] + tot[metrics.ECMMem] - tot[metrics.ECMHidden]
	if got := float64(busyTime); got != want {
		t.Errorf("phase time %v, time counters %v", got, want)
	}
}

// TestPhaseCountersSumToTotalsECM re-runs the attribution property with
// the ECM pricing model: per-phase times must still cover the extended
// time-counter partition (core + per-level transfer phases − hidden),
// and the per-level phase counters must actually be populated.
func TestPhaseCountersSumToTotalsECM(t *testing.T) {
	t.Parallel()
	jt, rep := countedFourRankJobModel(t, perfmodel.ModelECM)
	cr := obs.BuildCounterReport(jt, obs.A64FXPeaks(jt))
	if cr == nil || len(cr.Phases) == 0 {
		t.Fatal("no phase attribution")
	}
	var busyTime units.Duration
	for _, p := range cr.Phases {
		busyTime += p.Time
	}
	tot := rep.Counters.Totals()
	if tot[metrics.ECML1] <= 0 || tot[metrics.ECML2] <= 0 || tot[metrics.ECMMem] <= 0 {
		t.Fatalf("ECM job recorded no per-level phases: L1 %v, L2 %v, mem %v",
			tot[metrics.ECML1], tot[metrics.ECML2], tot[metrics.ECMMem])
	}
	want := tot[metrics.TimeFlops] + tot[metrics.StallMem] + tot[metrics.StallCall] +
		tot[metrics.StallNoise] + tot[metrics.NetInject] +
		tot[metrics.ECML1] + tot[metrics.ECML2] + tot[metrics.ECMMem] - tot[metrics.ECMHidden]
	if got := float64(busyTime); got != want {
		t.Errorf("phase time %v, extended time counters %v", got, want)
	}
}

// TestCounterReportNilWithoutPMU: an uncounted trace yields no report
// and an Analyze report without the section.
func TestCounterReportNilWithoutPMU(t *testing.T) {
	t.Parallel()
	sink, _ := fourRankJob(t)
	jt := obs.SplitJobs(sink.Events)[0]
	if cr := obs.BuildCounterReport(jt, obs.A64FXPeaks(jt)); cr != nil {
		t.Fatal("uncounted trace produced a counter report")
	}
	rep, err := obs.Analyze(jt, obs.A64FXPeaks(jt))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters != nil {
		t.Fatal("Analyze invented a counters section")
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "\"counters\"") {
		t.Fatal("nil counters section serialized")
	}
}

// TestCounterCSV checks the long-form series export: header, sparse
// change-only rows, and parseable values.
func TestCounterCSV(t *testing.T) {
	t.Parallel()
	jt, _ := countedFourRankJob(t)
	var b bytes.Buffer
	if err := obs.WriteCounterCSV(&b, []obs.JobTrace{jt}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "job,label,at_ns,counter,value" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) < 2 {
		t.Fatal("no series rows; the sampling period should produce samples for this job")
	}
}

// TestRooflineZeroDurationSafe pins the zero-guard: a class whose
// summed busy time is zero (quick-mode rounding) must yield zero rates
// — never Inf/NaN, which encoding/json rejects outright.
func TestRooflineZeroDurationSafe(t *testing.T) {
	t.Parallel()
	jt := obs.JobTrace{Label: "degenerate", Events: []simmpi.Event{
		{Kind: simmpi.EvCompute, Rank: 0, Class: perfmodel.DotProduct,
			Duration: 0, Flops: 1000, Bytes: 0, Peer: -1},
	}}
	points := obs.BuildRoofline(obs.Peaks{}, jt)
	if len(points) != 1 {
		t.Fatalf("got %d points", len(points))
	}
	p := points[0]
	if p.FlopRate != 0 || p.Bandwidth != 0 || p.Intensity != 0 {
		t.Fatalf("zero-duration point leaked non-zero rates: %+v", p)
	}
	if _, err := json.Marshal(points); err != nil {
		t.Fatalf("roofline point not JSON-encodable: %v", err)
	}
}
