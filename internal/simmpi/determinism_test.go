// Determinism stress test: the runtime's core promise is that virtual
// time is a pure function of the job, independent of how the host runs
// the rank coroutines. This external test package
// (simmpi_test, so it can import the benchmark codes without a cycle)
// replays the same traced HPCG job and Nekbone job under a range of
// GOMAXPROCS values and demands bit-identical outcomes every time.
package simmpi_test

import (
	"math"
	"runtime"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/nekbone"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// gomaxSchedule is the 10-run sweep of scheduler widths; repeats are
// deliberate — a run must match not only across widths but across
// repetitions at the same width.
var gomaxSchedule = []int{1, 2, 3, 4, 8, 16, 1, 4, 2, 8}

// hpcgOutcome captures what a traced HPCG job reports, with floats as
// bit patterns so equality is exact.
type hpcgOutcome struct {
	makespan   units.Duration
	gflopsBits uint64
	events     int
	msgs       int64
	bytes      units.Bytes
}

// runTracedHPCG runs the metered HPCG benchmark on two A64FX nodes (96
// ranks, an 8³ local grid, two multigrid levels, three CG iterations)
// with tracing on, and reduces it to a comparable outcome.
func runTracedHPCG(t *testing.T) hpcgOutcome {
	t.Helper()
	events := 0
	res, err := hpcg.Run(hpcg.Config{
		System: arch.MustGet(arch.A64FX), Nodes: 2,
		NX: 8, NY: 8, NZ: 8, Levels: 2, Iterations: 3,
		Instrumentation: simmpi.Instrumentation{
			Trace: func(job *simmpi.Report) { events += len(job.Events) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return hpcgOutcome{
		makespan:   res.Report.Makespan,
		gflopsBits: math.Float64bits(res.GFLOPs),
		events:     events,
		msgs:       res.Report.TotalMsgs,
		bytes:      res.Report.TotalBytesSent,
	}
}

// TestHPCGDeterministicAcrossGOMAXPROCS replays the traced HPCG job ten
// times under varying scheduler widths and demands identical outcomes.
// Must not run in parallel with other tests: GOMAXPROCS is
// process-global.
func TestHPCGDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ref := runTracedHPCG(t)
	if ref.events == 0 {
		t.Fatal("tracing produced no events; the event-count assertion would be vacuous")
	}
	if ref.makespan <= 0 || ref.msgs == 0 {
		t.Fatalf("degenerate reference outcome: %+v", ref)
	}
	for i, n := range gomaxSchedule {
		runtime.GOMAXPROCS(n)
		if got := runTracedHPCG(t); got != ref {
			t.Fatalf("run %d (GOMAXPROCS=%d): outcome diverged\n got %+v\nwant %+v", i, n, got, ref)
		}
	}
}

// TestNekboneDeterministicAcrossGOMAXPROCS does the same for the public
// Nekbone benchmark on a 4-node job (noise injection included — it is
// hashed, not random, and must replay exactly).
func TestNekboneDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func() [5]uint64 {
		res, err := nekbone.Run(nekbone.Config{
			System: arch.MustGet(arch.A64FX), Nodes: 4,
			ElementsPerRank: 8, Order: 4, Iterations: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		return [5]uint64{
			math.Float64bits(res.GFLOPs),
			math.Float64bits(res.Seconds),
			uint64(res.Procs),
			uint64(res.Report.Makespan),
			uint64(res.Report.TotalMsgs),
		}
	}
	ref := run()
	for i, n := range gomaxSchedule {
		runtime.GOMAXPROCS(n)
		if got := run(); got != ref {
			t.Fatalf("run %d (GOMAXPROCS=%d): %v != %v", i, n, got, ref)
		}
	}
}
