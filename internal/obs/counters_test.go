package obs_test

import (
	"bytes"
	"encoding/json"
	"strconv"
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
func countedFourRankJob(t *testing.T) (*simmpi.Report, simmpi.Report) {
	t.Helper()
	return countedFourRankJobModel(t, "")
}

// countedFourRankJobModel is countedFourRankJob under an explicit
// pricing model so the ECM attribution tests run the identical body.
func countedFourRankJobModel(t *testing.T, pm perfmodel.Model) (*simmpi.Report, simmpi.Report) {
	t.Helper()
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(2, 1)
	sink, jobs := keepJobs()
	cfg := simmpi.JobConfig{
		Procs: 4, Nodes: 2, ThreadsPerRank: 1,
		CostModel: model,
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
			r.Send(right, 5, 64*units.KiB)
			r.Recv(left, 5)
			r.Allreduce(8)
			r.EndRegion()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return onlyJob(t, *jobs), rep
}

func TestCounterReportTotalsMatchRuntime(t *testing.T) {
	t.Parallel()
	jt, rep := countedFourRankJob(t)
	cr := obs.BuildCounterReport(jt, obs.A64FXPeaks(jt))
	if cr == nil {
		t.Fatal("counted trace produced no counter report")
	}
	// Report totals must equal the runtime's own accounting; the report
	// leaves zero counters out.
	got := map[string]float64{}
	for _, ct := range cr.Totals {
		got[ct.Name] = ct.Value
	}
	for id, want := range rep.Counters.Totals() {
		if name := metrics.ID(id).String(); got[name] != want {
			t.Errorf("%s: report total %v, runtime %v", name, got[name], want)
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
	jt, _ := fourRankJob(t)
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
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "\"counters\"") {
		t.Fatal("nil counters section serialized")
	}
}

// TestCounterCSV checks the long-form series export: header, sparse
// change-only rows, and parseable values.
func TestCounterCSV(t *testing.T) {
	t.Parallel()
	jt, _ := countedFourRankJob(t)
	pts := obs.CounterPoints(jt.Counters)
	var b bytes.Buffer
	if err := obs.WriteCounterCSV(&b, []obs.CounterSeries{{Label: jt.Label, Changes: pts}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "job,label,at_ns,counter,value" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) < 2 || len(lines) != len(pts)+1 {
		t.Fatalf("%d series rows for %d points; the sampling period should produce samples for this job", len(lines)-1, len(pts))
	}
	// Sparse: a counter appears at a point only when it changed, so
	// consecutive rows of one counter never repeat a value.
	last := map[string]string{}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 5 || f[0] != "0" || f[1] != jt.Label {
			t.Fatalf("row %q", line)
		}
		if _, err := strconv.ParseFloat(f[4], 64); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		if last[f[3]] == f[4] {
			t.Fatalf("row %q repeats its counter's previous value", line)
		}
		last[f[3]] = f[4]
	}
}

// TestRooflineZeroDurationSafe pins the zero-guard: a class whose
// summed busy time is zero (quick-mode rounding) must yield zero rates
// — never Inf/NaN, which encoding/json rejects outright.
func TestRooflineZeroDurationSafe(t *testing.T) {
	t.Parallel()
	jt := &simmpi.Report{Label: "degenerate", Events: []simmpi.Event{
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
