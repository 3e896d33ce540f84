package cosa

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/decomp"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// TestCase describes the benchmark problem of §VII.A: a harmonic-balance
// case with 4 harmonics, 800 grid blocks, 3,690,218 cells, fitting in
// about 60 GB.
type TestCase struct {
	// Harmonics is the HB harmonic count (time instances = 2H+1).
	Harmonics int
	// Blocks is the number of grid blocks (the decomposition unit).
	Blocks int
	// Cells is the total cell count over all blocks.
	Cells int64
	// MemoryBytes is the resident size of the case.
	MemoryBytes units.Bytes
	// Iterations is the benchmark iteration count (100 in the paper,
	// far fewer than production but enough to measure).
	Iterations int
}

// PaperTestCase returns the exact configuration benchmarked in §VII.A.
func PaperTestCase() TestCase {
	return TestCase{
		Harmonics:   4,
		Blocks:      800,
		Cells:       3690218,
		MemoryBytes: 60 * units.GiB,
		Iterations:  100,
	}
}

// Instances reports the time-instance count 2H+1.
func (tc TestCase) Instances() int { return 2*tc.Harmonics + 1 }

// CellsPerBlock reports the average block size.
func (tc TestCase) CellsPerBlock() float64 { return float64(tc.Cells) / float64(tc.Blocks) }

// Config describes one metered COSA run.
type Config struct {
	// System selects the machine model.
	System *arch.System
	// Nodes is the node count (Figure 4 sweeps 1–16).
	Nodes int
	// Case is the workload; zero value means PaperTestCase.
	Case TestCase
	// Instrumentation carries the run settings (trace sink,
	// congestion, counters, model, telemetry) into every simulated
	// job unchanged; see simmpi.Instrumentation.
	simmpi.Instrumentation
}

// Result is the outcome of a metered run.
type Result struct {
	// Seconds is the simulated runtime for the configured iterations
	// (the quantity Figure 4 plots).
	Seconds float64
	// Procs is the MPI process count (one per core, Table VIII).
	Procs int
	// ActiveProcs is the number of processes that received at least
	// one block (≤ Procs when Procs > Blocks, the Fulhame-at-16-nodes
	// effect).
	ActiveProcs int
	// MaxBlocksPerProc reports the load-balance bottleneck.
	MaxBlocksPerProc int
	// Report carries full accounting.
	Report simmpi.Report
}

// Per-cell-per-instance work of one multigrid iteration: flux assembly,
// residual, smoothing and coarse-grid visits for the 5 conservative
// variables. Derived from COSA's operation structure; absolute scale is
// not pinned by the paper (Figure 4 is relative), so these set a
// plausible ~450 flops and ~400 bytes per cell-instance.
const (
	flopsPerCellInstance = 450
	bytesPerCellInstance = 400
)

// Run executes the metered COSA strong-scaling benchmark.
func Run(cfg Config) (Result, error) {
	if cfg.System == nil {
		return Result{}, fmt.Errorf("cosa: System is required")
	}
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Case.Blocks == 0 {
		cfg.Case = PaperTestCase()
	}
	sys := cfg.System
	tc := cfg.Case

	// Memory check: the case must fit the aggregate node memory
	// (§VII.3: "the benchmark would not fit on a single A64FX node").
	if units.Bytes(cfg.Nodes)*sys.MemoryPerNode() < tc.MemoryBytes {
		return Result{}, fmt.Errorf("cosa: case needs %v, %d %s nodes have %v",
			tc.MemoryBytes, cfg.Nodes, sys.ID, units.Bytes(cfg.Nodes)*sys.MemoryPerNode())
	}

	procs := cfg.Nodes * sys.CoresPerNode()
	part := decomp.BlockPartition{N: tc.Blocks, P: procs}

	// Per-block work per iteration.
	cellsBlk := tc.CellsPerBlock()
	inst := float64(tc.Instances())
	blockWork := perfmodel.WorkProfile{
		Class: perfmodel.FluxFV,
		Flops: units.Flops(cellsBlk * inst * flopsPerCellInstance),
		Bytes: units.Bytes(cellsBlk * inst * bytesPerCellInstance),
		Calls: 1,
	}
	// Halo: each block exchanges its perimeter with neighbouring
	// blocks. A block of ~4613 cells has a perimeter of ~4·√4613 ≈ 272
	// cells, each carrying 5 variables × (2H+1) instances.
	perimeter := 4 * int(sqrtApprox(cellsBlk))
	haloBytes := units.Bytes(float64(perimeter) * 5 * inst * 8)

	model := sys.PerRankModel(sys.CoresPerNode(), 1)
	job := simmpi.JobConfig{
		Procs:          procs,
		Nodes:          cfg.Nodes,
		ThreadsPerRank: 1,
		CostModel:      model,
		Fabric:         sys.NewFabric(cfg.Nodes),
		NoiseProb:      1e-5,
		NoiseDuration:  units.Duration(30 * units.Millisecond),
		Label:          fmt.Sprintf("cosa %s n=%d", sys.ID, cfg.Nodes),
	}
	job.Instrumentation = cfg.Instrumentation

	rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
		myBlocks := part.Part(r.ID())
		const tagHalo = 13
		// Halo exchange: blocks are distributed contiguously, so
		// inter-process traffic is with adjacent ranks in the active
		// set. Idle ranks join the exchange with no halos.
		active := part.ActiveParts()
		halos := r.Neighborhood(decomp.ChainHalos(r.ID(), active, haloBytes))
		for it := 0; it < tc.Iterations; it++ {
			r.Region("hb-iter")
			// Work for all owned blocks.
			if myBlocks > 0 {
				r.Region("flux")
				r.Compute(blockWork.Scale(int64(myBlocks)))
				r.EndRegion()
			}
			if active > 1 {
				if r.ID() < active {
					r.Region("halo")
				}
				r.NeighborExchange(halos, tagHalo)
				if r.ID() < active {
					r.EndRegion()
				}
			}
			// Residual-monitoring reduction each iteration.
			r.Allreduce(8)
			r.EndRegion()
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Seconds:          rep.Seconds(),
		Procs:            procs,
		ActiveProcs:      part.ActiveParts(),
		MaxBlocksPerProc: part.MaxPart(),
		Report:           rep,
	}, nil
}

// sqrtApprox is an integer-friendly Newton square root for sizing.
func sqrtApprox(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 40; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// ProcessesPerNode reproduces Table VIII: the MPI processes per node used
// on each system (one per core). Only the paper's five systems appear —
// derived ablation systems are not part of Table VIII.
func ProcessesPerNode() map[arch.ID]int {
	out := make(map[arch.ID]int)
	for _, id := range arch.IDs() {
		out[id] = arch.MustGet(id).CoresPerNode()
	}
	return out
}
