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

// congestedJob runs an 8-rank, 8-node congestion-enabled traced job with
// enough overlapping traffic to contend every injection port.
func congestedJob(t *testing.T) *simmpi.MemorySink {
	t.Helper()
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(8, 1)
	sink := &simmpi.MemorySink{}
	cfg := simmpi.JobConfig{
		Procs: 8, Nodes: 8, ThreadsPerRank: 1,
		RankModel:       func(int) *perfmodel.CostModel { return model },
		Fabric:          sys.NewFabric(8),
		Label:           "congested-8rank",
		Instrumentation: simmpi.Instrumentation{Congestion: true, Trace: sink},
	}
	_, err := simmpi.Run(cfg, func(r *simmpi.Rank) error {
		// Fan-in: every rank eagerly sends to rank 0, contending its
		// ejection link with 7 concurrent flows.
		buf := make([]float64, 1<<15)
		if r.ID() != 0 {
			r.SendFloats(0, 7, buf)
			return nil
		}
		for src := 1; src < r.Size(); src++ {
			r.RecvFloats(src, 7)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sink
}

func TestBuildLinkHeatmap(t *testing.T) {
	t.Parallel()
	sink := congestedJob(t)
	jobs := obs.SplitJobs(sink.Events)
	if len(jobs) != 1 {
		t.Fatalf("want 1 job, got %d", len(jobs))
	}
	hm := obs.BuildLinkHeatmap(jobs[0])
	if hm == nil || len(hm.Links) == 0 {
		t.Fatal("no link heatmap from congested trace")
	}
	if hm.MaxPeakFlows() < 2 {
		t.Errorf("peak concurrency %d, want ≥ 2", hm.MaxPeakFlows())
	}
	var withSeries int
	for _, l := range hm.Links {
		if l.Name == "" {
			t.Error("link with empty name")
		}
		if l.Util < 0 || l.Util > 1 {
			t.Errorf("link %s util %v out of [0,1]", l.Name, l.Util)
		}
		if len(l.Series) > 0 {
			withSeries++
			for b, v := range l.Series {
				if v < 0 || v > 1 {
					t.Errorf("link %s bucket %d util %v out of [0,1]", l.Name, b, v)
				}
			}
		}
	}
	if withSeries == 0 {
		t.Error("no link carries a utilization series")
	}
}

func TestLinkHeatmapAbsentWithoutCongestion(t *testing.T) {
	t.Parallel()
	sink, _ := fourRankJob(t)
	jobs := obs.SplitJobs(sink.Events)
	if hm := obs.BuildLinkHeatmap(jobs[0]); hm != nil {
		t.Errorf("contention-free trace produced a heatmap: %+v", hm)
	}
}

func TestLinkHeatmapRender(t *testing.T) {
	t.Parallel()
	sink := congestedJob(t)
	jobs := obs.SplitJobs(sink.Events)
	hm := obs.BuildLinkHeatmap(jobs[0])
	var buf bytes.Buffer
	if err := hm.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "link heatmap") || !strings.Contains(out, "util") {
		t.Errorf("render missing expected fields:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != len(hm.Links)+1 {
		t.Errorf("render line count mismatch:\n%s", out)
	}
}

func TestAnalyzeCarriesLinks(t *testing.T) {
	t.Parallel()
	sink := congestedJob(t)
	jobs := obs.SplitJobs(sink.Events)
	rep, err := obs.Analyze(jobs[0], obs.Peaks{FlopRate: units.GFlopPerSec, Bandwidth: units.GBPerSec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Links == nil {
		t.Fatal("Analyze dropped the link heatmap")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"links"`) {
		t.Error("report JSON missing links section")
	}
}

func TestChromeCounterTracks(t *testing.T) {
	t.Parallel()
	sink := congestedJob(t)
	jobs := obs.SplitJobs(sink.Events)
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"ph":"C"`) {
		t.Error("chrome trace has no counter events for link utilization")
	}
	if !strings.Contains(out, `"util"`) {
		t.Error("chrome counter events carry no util arg")
	}
}
