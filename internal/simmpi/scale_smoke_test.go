// The engine at scale: the weak-scaled HPCG scenario (see
// hpcg.ScaleConfig) gated on heap allocations per simulated message and
// measured in simulated ranks per wall-clock second. The 100k-rank
// smoke is env-gated so it runs in the dedicated CI scale job, not in
// every `go test ./...`.
package simmpi_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/simmpi"
)

// The allocation gate's scenario and bound. 86 nodes × 48 cores = 4,128
// ranks. Allocations per simulated message are a property of the code,
// not of the host, so the bound holds on any machine: at most 15% above
// the 0.0866 measured once halo exchanges ran as one batched collective.
const (
	allocGateNodes    = 86
	allocGateBaseline = 0.0866
	allocGateTol      = 0.15
	// allocGateReps is how many times the scenario runs; the fewest
	// allocations count, which discards GC and runtime interference.
	allocGateReps = 3
)

// TestEngineAllocsPerMsg runs the 4,128-rank scenario on one core and
// fails if heap allocations per simulated message exceed the baseline
// by more than allocGateTol.
func TestEngineAllocsPerMsg(t *testing.T) {
	if simmpi.RaceEnabled {
		t.Skip("race-detector instrumentation allocates per channel operation")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sys := arch.MustGet(arch.A64FX)
	var mallocs uint64
	var res hpcg.Result
	for rep := 0; rep < allocGateReps; rep++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := hpcg.Run(hpcg.ScaleConfig(sys, allocGateNodes))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if m := after.Mallocs - before.Mallocs; rep == 0 || m < mallocs {
			mallocs = m
		}
		res = r
	}
	if want := allocGateNodes * sys.CoresPerNode(); res.Procs != want {
		t.Fatalf("scenario ran %d ranks, want %d", res.Procs, want)
	}
	msgs := res.Report.TotalMsgs
	if msgs == 0 {
		t.Fatal("the scenario sent no messages")
	}
	perMsg := math.Round(float64(mallocs)/float64(msgs)*1e4) / 1e4
	ceiling := allocGateBaseline * (1 + allocGateTol)
	t.Logf("%d ranks, %d msgs: %.4f allocs/msg (ceiling %.4f)", res.Procs, msgs, perMsg, ceiling)
	if perMsg > ceiling {
		t.Fatalf("allocs/msg regressed to %.4f, baseline %.4f (ceiling %.4f)",
			perMsg, allocGateBaseline, ceiling)
	}
}

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
