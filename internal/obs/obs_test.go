package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/obs"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// fourRankJob runs the reference 4-rank, 2-node traced job used across
// the tests: two annotated iterations of compute + ring exchange +
// allreduce on the A64FX model.
func fourRankJob(t *testing.T) (*simmpi.MemorySink, simmpi.Report) {
	t.Helper()
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(2, 1)
	sink := &simmpi.MemorySink{}
	cfg := simmpi.JobConfig{
		Procs: 4, Nodes: 2, ThreadsPerRank: 1,
		CostModel:       model,
		Fabric:          sys.NewFabric(2),
		Label:           "golden-4rank",
		Instrumentation: simmpi.Instrumentation{Trace: sink},
	}
	work := perfmodel.WorkProfile{
		Class: perfmodel.VectorOp,
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
	return sink, rep
}

func TestSplitJobs(t *testing.T) {
	t.Parallel()
	sink, rep := fourRankJob(t)
	jobs := obs.SplitJobs(sink.Events)
	if len(jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(jobs))
	}
	jt := jobs[0]
	if jt.Label != "golden-4rank" {
		t.Errorf("label %q", jt.Label)
	}
	if jt.Makespan != rep.Makespan {
		t.Errorf("makespan %v != report %v", jt.Makespan, rep.Makespan)
	}
	if jt.NumRanks() != 4 || jt.NumNodes() != 2 {
		t.Errorf("ranks=%d nodes=%d, want 4/2", jt.NumRanks(), jt.NumNodes())
	}
	for _, e := range jt.Events {
		if e.Kind == simmpi.EvJobBegin || e.Kind == simmpi.EvJobEnd {
			t.Fatal("job markers must not leak into JobTrace events")
		}
	}
	nodeOf := jt.NodeOf()
	want := []int{0, 0, 1, 1}
	for r, n := range nodeOf {
		if n != want[r] {
			t.Errorf("rank %d on node %d, want %d", r, n, want[r])
		}
	}
}

func TestTextSinkMatchesWriteTo(t *testing.T) {
	t.Parallel()
	sink, _ := fourRankJob(t)

	// Replaying the stream through a TextSink must reproduce the
	// classic Timeline.WriteTo rendering byte for byte.
	var direct bytes.Buffer
	if _, err := sink.Events.WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	ts := obs.NewTextSink(&streamed)
	for _, e := range sink.Events {
		ts.Record(e)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if direct.String() != streamed.String() {
		t.Error("TextSink output differs from Timeline.WriteTo")
	}
	for _, needle := range []string{"compute", "send", "recv", "iter", "stream", "golden-4rank"} {
		if !strings.Contains(streamed.String(), needle) {
			t.Errorf("text output missing %q", needle)
		}
	}
}

func TestCommMatrix(t *testing.T) {
	t.Parallel()
	sink, rep := fourRankJob(t)
	jobs := obs.SplitJobs(sink.Events)
	m := obs.BuildCommMatrix(jobs...)
	if m.N != 4 {
		t.Fatalf("matrix dim %d", m.N)
	}
	msgs, bytesTotal := m.Totals()
	if msgs != rep.TotalMsgs {
		t.Errorf("matrix msgs %d != report %d", msgs, rep.TotalMsgs)
	}
	if bytesTotal != rep.TotalBytesSent {
		t.Errorf("matrix bytes %v != report %v", bytesTotal, rep.TotalBytesSent)
	}
	// The ring: every rank sent to its right neighbour twice.
	for s := 0; s < 4; s++ {
		d := (s + 1) % 4
		if m.Msgs[s][d] < 2 {
			t.Errorf("ring edge %d→%d has %d msgs", s, d, m.Msgs[s][d])
		}
	}
	nv := m.NodeView()
	if nv.N != 2 {
		t.Fatalf("node view dim %d", nv.N)
	}
	nmsgs, nbytes := nv.Totals()
	if nmsgs != msgs || nbytes != bytesTotal {
		t.Error("node view must conserve totals")
	}
	var out bytes.Buffer
	if err := m.Render(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "communication matrix") {
		t.Errorf("render output:\n%s", out.String())
	}
}

func TestRoofline(t *testing.T) {
	t.Parallel()
	sink, rep := fourRankJob(t)
	jobs := obs.SplitJobs(sink.Events)
	sys := arch.MustGet(arch.A64FX)
	peaks := obs.Peaks{
		FlopRate:  sys.Node.PeakFlops / units.FlopRate(2),
		Bandwidth: sys.Node.PeakBandwidth() / units.ByteRate(2),
	}
	points := obs.BuildRoofline(peaks, jobs...)
	if len(points) != 1 {
		t.Fatalf("got %d classes, want 1 (vecop): %+v", len(points), points)
	}
	p := points[0]
	if p.Class != perfmodel.VectorOp {
		t.Errorf("class %v", p.Class)
	}
	// 4 ranks × 2 iterations of the profile.
	if p.Flops != 8*10*units.MFlop {
		t.Errorf("flops %v", p.Flops)
	}
	if p.Flops != rep.TotalFlops {
		t.Errorf("roofline flops %v != report %v", p.Flops, rep.TotalFlops)
	}
	if p.Bound != "memory" {
		t.Errorf("a 0.15 flop/byte stream kernel must be memory bound, got %q (util %.3f)",
			p.Bound, p.Utilization)
	}
	if p.Utilization <= 0 || p.Utilization > 1.5 {
		t.Errorf("utilization %.3f out of range", p.Utilization)
	}
	var out bytes.Buffer
	if err := obs.RenderRoofline(&out, peaks, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vecop") {
		t.Errorf("roofline render:\n%s", out.String())
	}
}

func TestAnalyzeReportJSON(t *testing.T) {
	t.Parallel()
	sink, _ := fourRankJob(t)
	jobs := obs.SplitJobs(sink.Events)
	rep, err := obs.Analyze(jobs[0], obs.Peaks{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 4 || rep.Nodes != 2 || rep.CommByNode == nil {
		t.Errorf("report shape: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"critical_path", "roofline", "comm_by_node", "makespan_ns"} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON report missing %q", key)
		}
	}
	var text bytes.Buffer
	if err := rep.Render(&text, obs.Peaks{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "critical path") {
		t.Errorf("text report:\n%s", text.String())
	}
}
