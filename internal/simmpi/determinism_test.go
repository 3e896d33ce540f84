// Determinism stress test: the runtime's core promise is that virtual
// time is a pure function of the job, independent of how the Go
// scheduler runs the rank goroutines. This external test package
// (simmpi_test, so it can import the benchmark codes without a cycle)
// replays the same distributed HPCG and Nekbone jobs under a range of
// GOMAXPROCS values and demands bit-identical outcomes every time.
package simmpi_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/nekbone"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// gomaxSchedule is the 10-run sweep of scheduler widths; repeats are
// deliberate — a run must match not only across widths but across
// repetitions at the same width.
var gomaxSchedule = []int{1, 2, 3, 4, 8, 16, 1, 4, 2, 8}

// hpcgOutcome captures everything a distributed HPCG job reports, with
// floats as bit patterns so equality is exact.
type hpcgOutcome struct {
	makespan   units.Duration
	gflopsBits uint64
	events     int
	msgs       int64
	bytes      units.Bytes
	iters      int
	solSum     uint64 // order-independent checksum of the solution bits
}

// runTracedHPCG executes a 6-rank, 2-node distributed HPCG solve on the
// A64FX model with tracing on, and reduces it to a comparable outcome.
func runTracedHPCG(t *testing.T) hpcgOutcome {
	t.Helper()
	const nx, ny, nz, procs, nodes = 8, 8, 12, 6, 2
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(procs/nodes, 1)
	sink := &simmpi.MemorySink{}
	cfg := simmpi.JobConfig{
		Procs: procs, Nodes: nodes, ThreadsPerRank: 1,
		RankModel:       func(int) *perfmodel.CostModel { return model },
		Fabric:          sys.NewFabric(nodes),
		Instrumentation: simmpi.Instrumentation{Trace: sink},
	}
	b := make([]float64, nx*ny*nz)
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.3)
	}
	var (
		mu     sync.Mutex
		solSum uint64
		iters  int
	)
	rep, err := simmpi.Run(cfg, func(r *simmpi.Rank) error {
		d, err := hpcg.NewDistributedStencilCG(r, nx, ny, nz)
		if err != nil {
			return err
		}
		// Reconstruct this rank's slab offset from the public extents.
		lo := slabStart(nz, r.Size(), r.ID()) * nx * ny
		x, it, relres := d.Solve(b[lo:lo+d.LocalLen()], 400, 1e-11)
		if relres > 1e-11 {
			return fmt.Errorf("rank %d did not converge: %v", r.ID(), relres)
		}
		var sum uint64
		for _, v := range x {
			sum += math.Float64bits(v)
		}
		mu.Lock()
		solSum += sum
		if r.ID() == 0 {
			iters = it
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hpcgOutcome{
		makespan:   rep.Makespan,
		gflopsBits: math.Float64bits(rep.GFLOPs()),
		events:     len(sink.Events),
		msgs:       rep.TotalMsgs,
		bytes:      rep.TotalBytesSent,
		iters:      iters,
		solSum:     solSum,
	}
}

// slabStart mirrors hpcg's z-slab distribution of nz planes over p ranks.
func slabStart(nz, p, id int) int {
	base, rem := nz/p, nz%p
	lo := id * base
	if id < rem {
		return lo + id
	}
	return lo + rem
}

// TestHPCGDeterministicAcrossGOMAXPROCS replays the traced distributed
// solve ten times under varying scheduler widths and demands identical
// outcomes. Must not run in parallel with other tests: GOMAXPROCS is
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
