package nekbone

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/decomp"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// Config describes one metered Nekbone run: weak scaling with a fixed
// per-rank element count, the paper's §VI.B setup.
type Config struct {
	// System selects the machine model.
	System *arch.System
	// Nodes is the node count (Table VII sweeps 1–16).
	Nodes int
	// CoresPerNode overrides full population (Figure 3's core sweep);
	// 0 means all cores, one MPI rank per core.
	CoresPerNode int
	// ElementsPerRank is the local element count (paper: 200, the
	// largest test case in the Nekbone repository).
	ElementsPerRank int
	// Order is the polynomial order per direction (paper: 16).
	Order int
	// Iterations is the CG iteration count (Nekbone's standard: 100).
	Iterations int
	// FastMath enables the aggressive-compiler mode (-Kfast; Table VI's
	// "fast math" column).
	FastMath bool
	// Instrumentation carries the run settings (trace sink,
	// congestion, counters, model, telemetry) into every simulated
	// job unchanged; see simmpi.Instrumentation.
	simmpi.Instrumentation
}

func (c *Config) defaults() error {
	if c.System == nil {
		return fmt.Errorf("nekbone: System is required")
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = c.System.CoresPerNode()
	}
	if c.CoresPerNode < 1 || c.CoresPerNode > c.System.CoresPerNode() {
		return fmt.Errorf("nekbone: %d cores/node outside 1..%d",
			c.CoresPerNode, c.System.CoresPerNode())
	}
	if c.ElementsPerRank == 0 {
		c.ElementsPerRank = 200
	}
	if c.Order == 0 {
		c.Order = 16
	}
	if c.Order < 2 {
		return fmt.Errorf("nekbone: order must be ≥ 2, got %d", c.Order)
	}
	if c.Iterations == 0 {
		c.Iterations = 100
	}
	return nil
}

// Result is the outcome of a metered Nekbone run.
type Result struct {
	// GFLOPs is the achieved rate (Table VI's metric; node-level when
	// Nodes == 1).
	GFLOPs float64
	// Seconds is the simulated solve time.
	Seconds float64
	// Procs is the MPI rank count.
	Procs int
	// Report carries full accounting.
	Report simmpi.Report
}

// DefaultNoiseProb and DefaultNoiseDuration are the OS-noise parameters
// calibrated against Table VII's parallel efficiencies.
const DefaultNoiseProb = 1e-5

// DefaultNoiseDuration is the injected delay per noise event.
const DefaultNoiseDuration = units.Duration(30 * units.Millisecond)

// Run executes the metered Nekbone weak-scaling benchmark with the
// calibrated noise level.
func Run(cfg Config) (Result, error) {
	return RunWithNoise(cfg, DefaultNoiseProb, DefaultNoiseDuration)
}

// RunWithNoise executes the benchmark with an explicit OS-noise level,
// the knob the ext-noise ablation sweeps.
func RunWithNoise(cfg Config, noiseProb float64, noiseDur units.Duration) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	sys := cfg.System
	procs := cfg.Nodes * cfg.CoresPerNode
	grid := decomp.NewGrid3D(procs)

	n := cfg.Order
	e := float64(cfg.ElementsPerRank)
	n3 := float64(n * n * n)
	localPoints := e * n3

	// The ax kernel: element-local tensor contractions (SmallGEMM
	// class — far below the BLAS-3 blocking sweet spot, §VI.B).
	ax := perfmodel.WorkProfile{
		Class: perfmodel.SmallGEMM,
		Flops: units.Flops(e * AxFlops(n)),
		Bytes: units.Bytes(e * AxBytes(n)),
		Calls: int64(cfg.ElementsPerRank),
	}
	// Direct-stiffness summation (gather-scatter) over shared faces:
	// touch every point, exchange element-boundary data.
	dssum := perfmodel.WorkProfile{
		Class: perfmodel.GatherScatter,
		Flops: units.Flops(localPoints),
		Bytes: units.Bytes(3 * 8 * localPoints),
		Calls: 1,
	}
	dot := perfmodel.WorkProfile{
		Class: perfmodel.DotProduct,
		Flops: units.Flops(3 * localPoints), // glsc3: weighted dot
		Bytes: units.Bytes(24 * localPoints),
		Calls: 1,
	}
	axpy := perfmodel.WorkProfile{
		Class: perfmodel.VectorOp,
		Flops: units.Flops(2 * localPoints),
		Bytes: units.Bytes(24 * localPoints),
		Calls: 1,
	}

	// Halo: the faces of the rank's element block. With e elements of
	// order n, a face of the (roughly cubic) element block carries
	// e^(2/3)·n² points.
	facePoints := int(cubeRoot(e)*cubeRoot(e)*n3/float64(n) + 0.5)

	model := sys.PerRankModel(cfg.CoresPerNode, 1)
	job := simmpi.JobConfig{
		Procs:          procs,
		Nodes:          cfg.Nodes,
		ThreadsPerRank: 1,
		FastMath:       cfg.FastMath,
		CostModel:      model,
		Fabric:         sys.NewFabric(cfg.Nodes),
		NoiseProb:      noiseProb,
		NoiseDuration:  noiseDur,
		Label:          fmt.Sprintf("nekbone %s n=%d c=%d", sys.ID, cfg.Nodes, cfg.CoresPerNode),
	}
	job.Instrumentation = cfg.Instrumentation

	haloBytes := units.Bytes(facePoints * 8)
	rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
		const tagHalo = 7
		// One halo per existing face neighbour, registered once: face f
		// goes out with tag tagHalo+f and the neighbour's facing face
		// comes back with its own tag (faces pair as (0,1), (2,3),
		// (4,5)).
		var faces [decomp.NumFaces]simmpi.Halo
		n := 0
		for f, nbr := range grid.Neighbors(r.ID()) {
			if nbr >= 0 {
				faces[n] = simmpi.Halo{Peer: nbr, SendTag: f, RecvTag: f ^ 1, Bytes: haloBytes}
				n++
			}
		}
		halos := r.Neighborhood(faces[:n])
		for it := 0; it < cfg.Iterations; it++ {
			// One CG iteration of Nekbone: ax + dssum + 2 reductions
			// + 3 vector updates.
			r.Region("cg-iter")
			r.Region("ax")
			r.Compute(ax)
			r.EndRegion()
			// dssum: local gather-scatter plus neighbour exchange.
			r.Region("dssum")
			r.Compute(dssum)
			r.NeighborExchange(halos, tagHalo)
			r.EndRegion()
			r.Compute(dot) // p·Ap
			r.Allreduce(8)
			r.Compute(axpy) // x
			r.Compute(axpy) // r
			r.Compute(dot)  // r·r
			r.Allreduce(8)
			r.Compute(axpy) // p
			r.EndRegion()
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		GFLOPs:  rep.GFLOPs(),
		Seconds: rep.Seconds(),
		Procs:   procs,
		Report:  rep,
	}, nil
}

// cubeRoot is a plain cube root for positive workload sizes.
func cubeRoot(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iteration, exact enough for sizing.
	g := x
	for i := 0; i < 60; i++ {
		g = (2*g + x/(g*g)) / 3
	}
	return g
}

// ParallelEfficiency computes Table VII's metric for a node sweep: the
// speedup over the 1-node run divided by the node count, under weak
// scaling (constant per-rank work, so PE = T₁/T_n).
func ParallelEfficiency(base Result, scaled Result, nodes int) float64 {
	if scaled.Seconds <= 0 || nodes < 1 {
		return 0
	}
	// Weak scaling: perfect efficiency keeps runtime constant.
	return base.Seconds / scaled.Seconds
}
