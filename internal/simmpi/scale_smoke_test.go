// Engine throughput at scale: the weak-scaled HPCG scenario (see
// hpcg.ScaleConfig) measured in simulated ranks per wall-clock second.
// The 100k-rank smoke is env-gated so it runs in the dedicated CI bench
// step, not in every `go test ./...`.
package simmpi_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
)

// TestEngine100kRankSmoke runs the full 100,032-rank weak-scaled HPCG
// scenario and enforces the CI wall-clock budget. Env-gated: it takes
// tens of seconds and wall-clock assertions are noisy on shared runners.
func TestEngine100kRankSmoke(t *testing.T) {
	if os.Getenv("A64FX_SMOKE_100K") == "" {
		t.Skip("set A64FX_SMOKE_100K=1 to run the 100k-rank smoke")
	}
	const budget = 5 * time.Minute
	start := time.Now()
	res, err := hpcg.Run(hpcg.ScaleConfig(arch.MustGet(arch.A64FX), hpcg.ScaleSmokeNodes))
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if res.Procs < 100000 {
		t.Fatalf("smoke ran %d ranks, want ≥ 100000", res.Procs)
	}
	if res.Report.Makespan <= 0 || res.Report.TotalMsgs == 0 {
		t.Fatalf("degenerate 100k result: makespan %v, %d msgs", res.Report.Makespan, res.Report.TotalMsgs)
	}
	t.Logf("100k smoke: %d ranks in %v (%.0f ranks/s, %d msgs)",
		res.Procs, wall.Round(time.Millisecond),
		float64(res.Procs)/wall.Seconds(), res.Report.TotalMsgs)
	if wall > budget {
		t.Fatalf("100k-rank smoke took %v, budget %v", wall.Round(time.Second), budget)
	}
}

// BenchmarkEngineRanksPerSec measures simulated ranks/sec across scales.
// The custom ranks/s metric is the headline number; wall time per op is
// the full scenario execution.
func BenchmarkEngineRanksPerSec(b *testing.B) {
	for _, nodes := range []int{2, 11, 86} { // 96, 528, 4128 ranks
		procs := nodes * 48
		b.Run(fmt.Sprintf("ranks=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hpcg.Run(hpcg.ScaleConfig(arch.MustGet(arch.A64FX), nodes)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(procs*b.N)/b.Elapsed().Seconds(), "ranks/s")
		})
	}
}
