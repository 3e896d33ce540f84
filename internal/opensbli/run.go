package opensbli

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/decomp"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// Case describes the metered benchmark workload: the Taylor-Green vortex
// at the paper's strong-scaling size.
type Case struct {
	// Grid is the global grid dimension (the paper uses 64³, chosen so
	// the problem fits one 32 GB A64FX node; 512³ and 1024³ are the
	// usual production sizes).
	Grid int
	// Steps is the number of RK3 time steps in the benchmark run.
	Steps int
}

// PaperCase returns the §VII.C configuration.
func PaperCase() Case {
	return Case{Grid: 64, Steps: 200}
}

// Config describes one metered OpenSBLI run.
type Config struct {
	// System selects the machine model.
	System *arch.System
	// Nodes is the node count (Table X sweeps 1–8), fully populated
	// with one MPI process per core.
	Nodes int
	// Case is the workload; zero value means PaperCase.
	Case Case
	// Instrumentation carries the run settings (trace sink,
	// congestion, counters, model, telemetry) into every simulated
	// job unchanged; see simmpi.Instrumentation.
	simmpi.Instrumentation
}

// Result is the outcome of a metered run.
type Result struct {
	// Seconds is the total runtime — Table X's metric.
	Seconds float64
	// Procs is the MPI process count.
	Procs int
	// Report carries full accounting.
	Report simmpi.Report
}

// Per-cell-per-stage work of the generated OPS kernels: the five
// conservative equations with central fluxes and viscous terms. The OPS
// code generator emits one pass per derivative term, so the byte traffic
// per cell is high relative to the flops — part of why the A64FX, with
// its L2/instruction-fetch behaviour on generated code, underperforms
// here (§VII.C.2).
const (
	flopsPerCellStage = 1200
	bytesPerCellStage = 480
)

// Run executes the metered OpenSBLI strong-scaling benchmark.
func Run(cfg Config) (Result, error) {
	if cfg.System == nil {
		return Result{}, fmt.Errorf("opensbli: System is required")
	}
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Case == (Case{}) {
		cfg.Case = PaperCase()
	}
	if cfg.Case.Grid < 4 || cfg.Case.Steps < 1 {
		return Result{}, fmt.Errorf("opensbli: invalid case %+v", cfg.Case)
	}
	sys := cfg.System
	tc := cfg.Case
	procs := cfg.Nodes * sys.CoresPerNode()
	grid := decomp.NewGrid3D(procs)

	cellsPerRank := float64(tc.Grid*tc.Grid*tc.Grid) / float64(procs)
	stage := perfmodel.WorkProfile{
		Class: perfmodel.StencilFD,
		Flops: units.Flops(cellsPerRank * flopsPerCellStage),
		Bytes: units.Bytes(cellsPerRank * bytesPerCellStage),
		Calls: 1,
	}

	// Local block dimensions for halo sizing.
	lnx := tc.Grid / grid.PX
	lny := tc.Grid / grid.PY
	lnz := tc.Grid / grid.PZ
	if lnx < 1 {
		lnx = 1
	}
	if lny < 1 {
		lny = 1
	}
	if lnz < 1 {
		lnz = 1
	}
	// 5 variables, halo width 2 (the wide stencils of the generated
	// code), 8 bytes each.
	halo := decomp.HaloSpec{NX: lnx, NY: lny, NZ: lnz, Width: 2, Elem: 5 * 8}

	model := sys.PerRankModel(sys.CoresPerNode(), 1)
	job := simmpi.JobConfig{
		Procs:          procs,
		Nodes:          cfg.Nodes,
		ThreadsPerRank: 1,
		CostModel:      model,
		Fabric:         sys.NewFabric(cfg.Nodes),
		NoiseProb:      1e-5,
		NoiseDuration:  units.Duration(30 * units.Millisecond),
		Label:          fmt.Sprintf("opensbli %s n=%d g=%d", sys.ID, cfg.Nodes, tc.Grid),
	}
	job.Instrumentation = cfg.Instrumentation

	stageName := [3]string{"rk3-stage-0", "rk3-stage-1", "rk3-stage-2"}
	rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
		halos, n := decomp.Halos(r.ID(), grid, halo)
		nb := r.Neighborhood(halos[:n])
		for step := 0; step < tc.Steps; step++ {
			r.Region("rk3-step")
			for st := 0; st < 3; st++ { // RK3 stages
				r.Region(stageName[st])
				decomp.Exchange(r, nb, 16*st)
				r.Compute(stage)
				r.EndRegion()
			}
			// dt stability reduction once per step.
			r.Allreduce(8)
			r.EndRegion()
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Seconds: rep.Seconds(),
		Procs:   procs,
		Report:  rep,
	}, nil
}
