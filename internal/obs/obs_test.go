package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// keepJobs returns a trace sink that keeps every job report it
// receives, and the list it keeps them in.
func keepJobs() (simmpi.TraceSink, *[]*simmpi.Report) {
	var jobs []*simmpi.Report
	return func(job *simmpi.Report) { jobs = append(jobs, job) }, &jobs
}

// onlyJob returns the one job report a sink kept.
func onlyJob(t *testing.T, jobs []*simmpi.Report) *simmpi.Report {
	t.Helper()
	if len(jobs) != 1 {
		t.Fatalf("sink kept %d jobs, want 1", len(jobs))
	}
	return jobs[0]
}

// fourRankJob runs the reference 4-rank, 2-node traced job used across
// the tests: two annotated iterations of compute + ring exchange +
// allreduce on the A64FX model. It returns the report the sink received
// and the one Run returned.
func fourRankJob(t *testing.T) (*simmpi.Report, simmpi.Report) {
	t.Helper()
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(2, 1)
	sink, jobs := keepJobs()
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
	return onlyJob(t, *jobs), rep
}

// textLine renders one job-level line of the flat text timeline.
func textLine(at float64, kind, desc string) string {
	return fmt.Sprintf("%12.6fs rank %-4d %-8s %s\n", at, -1, kind, desc)
}

func TestTextSinkMatchesWriteTo(t *testing.T) {
	t.Parallel()
	job, _ := fourRankJob(t)

	// A job without links or counters prints its job line, then exactly
	// the classic Timeline.WriteTo rendering, then its jobend line.
	var direct bytes.Buffer
	if _, err := job.Events.WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	ts := obs.NewTextSink(&streamed)
	ts.Job(job)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	want := textLine(0, "job", job.Label) + direct.String() +
		textLine(job.Makespan.Seconds(), "jobend", fmt.Sprintf("%s makespan %v", job.Label, job.Makespan))
	if streamed.String() != want {
		t.Error("TextSink output differs from the job lines around Timeline.WriteTo")
	}
	for _, needle := range []string{"compute", "send", "recv", "iter", "stream", "golden-4rank"} {
		if !strings.Contains(streamed.String(), needle) {
			t.Errorf("text output missing %q", needle)
		}
	}
}

// TestTextSinkJobLines pins the order of a congested, counted job's
// text lines: the job line, its events, each link's line with its
// busy buckets, every rank's nonzero counters, the counter series, and
// the jobend line.
func TestTextSinkJobLines(t *testing.T) {
	t.Parallel()
	job := congestedJob(t, &metrics.Config{Period: 20 * units.Microsecond})
	var b bytes.Buffer
	ts := obs.NewTextSink(&b)
	ts.Job(job)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	order := map[string]int{"job": 0, "send": 1, "recv": 1, "compute": 1,
		"link": 2, "linksample": 2, "counter": 3, "ctrsample": 4, "jobend": 5}
	seen := map[string]int{}
	last := 0
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	for i, line := range lines {
		kind := strings.Fields(line)[3]
		rank, err := strconv.Atoi(strings.Fields(line)[2])
		if err != nil {
			t.Fatalf("line %d: %q", i, line)
		}
		if order[kind] < last {
			t.Fatalf("line %d: %s after a later section:\n%s", i, kind, line)
		}
		last = order[kind]
		seen[kind]++
		if jobLevel := kind == "job" || kind == "link" || kind == "linksample" ||
			kind == "ctrsample" || kind == "jobend"; jobLevel != (rank == -1) {
			t.Errorf("line %d: %s line at rank %d", i, kind, rank)
		}
	}
	if seen["job"] != 1 || seen["jobend"] != 1 || seen["link"] != len(job.Links.Links) ||
		seen["linksample"] == 0 || seen["counter"] == 0 || seen["ctrsample"] == 0 {
		t.Errorf("line counts %v", seen)
	}
	if at := strings.Fields(lines[len(lines)-1])[0]; at != fmt.Sprintf("%.6fs", job.Makespan.Seconds()) {
		t.Errorf("jobend at %s, want the makespan %v", at, job.Makespan)
	}
}

func TestCommMatrix(t *testing.T) {
	t.Parallel()
	job, rep := fourRankJob(t)
	m := obs.BuildCommMatrix(job)
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
}

func TestRoofline(t *testing.T) {
	t.Parallel()
	job, rep := fourRankJob(t)
	sys := arch.MustGet(arch.A64FX)
	peaks := obs.Peaks{
		FlopRate:  sys.Node.PeakFlops / units.FlopRate(2),
		Bandwidth: sys.Node.PeakBandwidth() / units.ByteRate(2),
	}
	points := obs.BuildRoofline(peaks, job)
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
}

func TestAnalyzeReportJSON(t *testing.T) {
	t.Parallel()
	job, _ := fourRankJob(t)
	rep, err := obs.Analyze(job, obs.Peaks{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 4 || rep.Nodes != 2 || rep.CommByNode == nil {
		t.Errorf("report shape: %+v", rep)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"critical_path", "roofline", "comm_by_node", "makespan_ns"} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON report missing %q", key)
		}
	}
}
