package hpcg

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/decomp"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sparse"
	"a64fxbench/internal/units"
)

// Config describes one HPCG benchmark run on a simulated system, matching
// the paper's §V.A setup: MPI-only, one process per core, local problem
// --nx=80 --ny=80 --nz=80.
type Config struct {
	// System selects the machine model.
	System *arch.System
	// Nodes is the node count (Table IV sweeps 1–8).
	Nodes int
	// NX, NY, NZ are the local subdomain dimensions per process
	// (default 80³, the paper's configuration).
	NX, NY, NZ int
	// Levels is the multigrid depth (default 4, the HPCG standard).
	Levels int
	// Iterations is the number of CG iterations to simulate (the rate
	// is steady state, so a modest count suffices; default 25).
	Iterations int
	// Optimised selects the vendor-optimised kernel variant of
	// Table III (Intel-optimised on NGIO, Arm-optimised on Fulhame).
	Optimised bool
	// Instrumentation carries the run settings (trace sink,
	// congestion, counters, model, telemetry) into every simulated
	// job unchanged; see simmpi.Instrumentation.
	simmpi.Instrumentation
}

// OptimisedKernelGain is the memory-efficiency gain of the vendor-
// optimised HPCG builds, calibrated from the paper's own opt/unopt
// ratios (NGIO 37.61/26.16 = 1.44, Fulhame 33.80/23.58 = 1.43).
const OptimisedKernelGain = 1.43

func (c *Config) defaults() error {
	if c.System == nil {
		return fmt.Errorf("hpcg: System is required")
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.NX == 0 {
		c.NX, c.NY, c.NZ = 80, 80, 80
	}
	if c.NX < 8 || c.NY < 8 || c.NZ < 8 {
		return fmt.Errorf("hpcg: local grid %dx%dx%d too small", c.NX, c.NY, c.NZ)
	}
	if c.Levels == 0 {
		c.Levels = 4
	}
	div := 1 << uint(c.Levels-1)
	if c.NX%div != 0 || c.NY%div != 0 || c.NZ%div != 0 {
		return fmt.Errorf("hpcg: local grid %dx%dx%d not divisible by %d", c.NX, c.NY, c.NZ, div)
	}
	if c.Iterations == 0 {
		c.Iterations = 25
	}
	return nil
}

// Result is the outcome of a metered HPCG run.
type Result struct {
	// GFLOPs is the benchmark rating: total flops over makespan.
	GFLOPs float64
	// PctPeak is GFLOPs as a percentage of the machine's peak
	// (Table III's second column).
	PctPeak float64
	// Seconds is the simulated runtime.
	Seconds float64
	// Procs is the MPI process count used.
	Procs int
	// Report carries the full runtime accounting.
	Report simmpi.Report
}

// levelWork captures the per-iteration metered work of one MG level for
// one rank.
type levelWork struct {
	nx, ny, nz int     // local dims at this level
	n          float64 // local rows
	nnz        float64 // local non-zeros
	halo       decomp.HaloSpec
}

// buildLevels derives the per-level local work for a rank given the
// process grid.
func buildLevels(cfg *Config, grid decomp.Grid3D) []levelWork {
	levels := make([]levelWork, cfg.Levels)
	for l := range levels {
		lnx, lny, lnz := cfg.NX>>uint(l), cfg.NY>>uint(l), cfg.NZ>>uint(l)
		gnx, gny, gnz := lnx*grid.PX, lny*grid.PY, lnz*grid.PZ
		nnzGlobal := sparse.Stencil27NNZ(gnx, gny, gnz)
		levels[l] = levelWork{
			nx: lnx, ny: lny, nz: lnz,
			n:   float64(lnx * lny * lnz),
			nnz: float64(nnzGlobal) / float64(grid.Size()),
			halo: decomp.HaloSpec{
				NX: lnx, NY: lny, NZ: lnz, Width: 1, Elem: 8,
			},
		}
	}
	return levels
}

// Work profiles for the HPCG kernels, following the benchmark's own
// operation accounting. Byte counts assume 8-byte values, 4-byte column
// indices, and streaming vector traffic.

func spmvProfile(lw levelWork) perfmodel.WorkProfile {
	// 8 bytes per value; index and gathered-x traffic partially cached
	// (the 27-point stencil re-touches x heavily), for an effective
	// 10 bytes per stored non-zero — the ~5 bytes/flop measured for
	// reference HPCG.
	return perfmodel.WorkProfile{
		Class: perfmodel.SpMV,
		Flops: units.Flops(2 * lw.nnz),
		Bytes: units.Bytes(10*lw.nnz + 2*8*lw.n),
		Calls: 1,
	}
}

func symgsProfile(lw levelWork) perfmodel.WorkProfile {
	// Forward + backward sweep: every non-zero twice, plus the divide.
	return perfmodel.WorkProfile{
		Class: perfmodel.SymGS,
		Flops: units.Flops(4*lw.nnz + 2*lw.n),
		Bytes: units.Bytes(2 * (10*lw.nnz + 8*lw.n)),
		Calls: 1,
	}
}

func dotProfile(n float64) perfmodel.WorkProfile {
	return perfmodel.WorkProfile{
		Class: perfmodel.DotProduct,
		Flops: units.Flops(2 * n),
		Bytes: units.Bytes(2 * 8 * n),
		Calls: 1,
	}
}

func waxpbyProfile(n float64) perfmodel.WorkProfile {
	return perfmodel.WorkProfile{
		Class: perfmodel.VectorOp,
		Flops: units.Flops(2 * n),
		Bytes: units.Bytes(3 * 8 * n),
		Calls: 1,
	}
}

func gridTransferProfile(nCoarse float64) perfmodel.WorkProfile {
	// Injection restriction or prolongation-and-add: one flop and ~20
	// bytes (value + index + read-modify-write) per coarse point.
	return perfmodel.WorkProfile{
		Class: perfmodel.GatherScatter,
		Flops: units.Flops(nCoarse),
		Bytes: units.Bytes(20 * nCoarse),
		Calls: 1,
	}
}

// Run executes the metered HPCG benchmark and returns its rating.
func Run(cfg Config) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	sys := cfg.System
	procs := sys.CoresPerNode() * cfg.Nodes
	grid := decomp.NewGrid3D(procs)
	levels := buildLevels(&cfg, grid)

	base := sys.PerRankModel(sys.CoresPerNode(), 1)
	model := base
	if cfg.Optimised {
		model = base.ScaleEfficiency(1, OptimisedKernelGain,
			perfmodel.SymGS, perfmodel.SpMV, perfmodel.VectorOp, perfmodel.DotProduct)
	}
	job := simmpi.JobConfig{
		Procs:          procs,
		Nodes:          cfg.Nodes,
		ThreadsPerRank: 1,
		CostModel:      model,
		Fabric:         sys.NewFabric(cfg.Nodes),
		Label:          fmt.Sprintf("hpcg %s n=%d %dx%dx%d", sys.ID, cfg.Nodes, cfg.NX, cfg.NY, cfg.NZ),
	}
	job.Instrumentation = cfg.Instrumentation

	levelName := make([]string, cfg.Levels)
	for l := range levelName {
		levelName[l] = fmt.Sprintf("mg-level-%d", l)
	}
	rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
		fine := levels[0]
		// One persistent neighbourhood per multigrid level: the level's
		// face halos, registered once. A fixed array keeps the handles
		// off the heap at the usual depths.
		var nbBuf [8]simmpi.Neighborhood
		nbs := nbBuf[:]
		if cfg.Levels > len(nbBuf) {
			nbs = make([]simmpi.Neighborhood, cfg.Levels)
		}
		for l, lw := range levels {
			halos, n := decomp.Halos(r.ID(), grid, lw.halo)
			nbs[l] = r.Neighborhood(halos[:n])
		}
		tagBase := 0
		// Each exchange of an iteration gets its own block of face tags,
		// reset every iteration so the trace carries the same tags each
		// time. Halos match only within one exchange, and the exchange
		// sequence is identical on all ranks (SPMD), so tags always match.
		nextTag := func() int { tagBase += 8; return tagBase }
		// One CG iteration of HPCG, repeated.
		for it := 0; it < cfg.Iterations; it++ {
			tagBase = 0
			r.Region("cg-iter")
			// Preconditioner: multigrid V-cycle.
			var down func(l int)
			down = func(l int) {
				lw := levels[l]
				r.Region(levelName[l])
				defer r.EndRegion()
				if l == cfg.Levels-1 {
					decomp.Exchange(r, nbs[l], nextTag())
					r.Compute(symgsProfile(lw))
					return
				}
				// Pre-smooth.
				decomp.Exchange(r, nbs[l], nextTag())
				r.Compute(symgsProfile(lw))
				// Residual SpMV.
				decomp.Exchange(r, nbs[l], nextTag())
				r.Compute(spmvProfile(lw))
				// Restrict.
				r.Compute(gridTransferProfile(levels[l+1].n))
				down(l + 1)
				// Prolong.
				r.Compute(gridTransferProfile(levels[l+1].n))
				// Post-smooth.
				decomp.Exchange(r, nbs[l], nextTag())
				r.Compute(symgsProfile(lw))
			}
			r.Region("vcycle")
			down(0)
			r.EndRegion()
			// dot(r, z)
			r.Compute(dotProfile(fine.n))
			r.Allreduce(8)
			// p update
			r.Compute(waxpbyProfile(fine.n))
			// SpMV A·p
			r.Region("spmv")
			decomp.Exchange(r, nbs[0], nextTag())
			r.Compute(spmvProfile(fine))
			r.EndRegion()
			// dot(p, Ap)
			r.Compute(dotProfile(fine.n))
			r.Allreduce(8)
			// x, r updates
			r.Compute(waxpbyProfile(fine.n))
			r.Compute(waxpbyProfile(fine.n))
			// dot(r, r) for convergence
			r.Compute(dotProfile(fine.n))
			r.Allreduce(8)
			r.EndRegion()
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		GFLOPs:  rep.GFLOPs(),
		Seconds: rep.Seconds(),
		Procs:   procs,
		Report:  rep,
	}
	peak := sys.PeakNodeGFlops() * float64(cfg.Nodes)
	if peak > 0 {
		res.PctPeak = res.GFLOPs / peak * 100
	}
	return res, nil
}

// MemoryPerRank estimates the resident bytes one rank needs for the
// configured local problem — matrix (values, indices, row pointers) plus
// the CG and MG vectors — used to check the paper's observation that 80³
// fits the A64FX's 32 GB.
func MemoryPerRank(cfg Config) units.Bytes {
	if cfg.NX == 0 {
		cfg.NX, cfg.NY, cfg.NZ = 80, 80, 80
	}
	if cfg.Levels == 0 {
		cfg.Levels = 4
	}
	var total float64
	for l := 0; l < cfg.Levels; l++ {
		n := float64((cfg.NX >> uint(l)) * (cfg.NY >> uint(l)) * (cfg.NZ >> uint(l)))
		nnz := 27 * n
		total += nnz*12 + n*8 // matrix + row pointers
		total += 4 * n * 8    // level vectors
	}
	total += 5 * float64(cfg.NX*cfg.NY*cfg.NZ) * 8 // CG vectors
	return units.Bytes(total)
}
