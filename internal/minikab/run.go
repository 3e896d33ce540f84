package minikab

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// MatrixSpec declares the workload matrix for metered runs. The default
// is the paper's Benchmark1.
type MatrixSpec struct {
	// Rows is the matrix dimension (degrees of freedom).
	Rows int64
	// NNZ is the stored non-zero count.
	NNZ int64
	// HaloDof is the number of coupled degrees of freedom on the
	// interface between two adjacent row blocks of the 1D (plane-wise)
	// decomposition.
	HaloDof int64
}

// Benchmark1 is the paper's structural test matrix: 9,573,984 degrees of
// freedom and 696,096,138 non-zeros (§VI.A), decomposed plane-wise so the
// interface between neighbouring ranks is one 147×147-node plane of
// 3-dof nodes.
func Benchmark1() MatrixSpec {
	return MatrixSpec{
		Rows:    9573984,
		NNZ:     696096138,
		HaloDof: 147 * 147 * 3,
	}
}

// Config describes one metered minikab run.
type Config struct {
	// System selects the machine model.
	System *arch.System
	// Nodes, RanksPerNode and ThreadsPerRank define the execution
	// configuration (Figure 1 sweeps these).
	Nodes          int
	RanksPerNode   int
	ThreadsPerRank int
	// Iterations is the CG iteration count. The paper does not state
	// Benchmark1's count; DefaultIterations reproduces Table V's A64FX
	// runtime, and all cross-system/cross-config numbers follow from
	// the model.
	Iterations int
	// Matrix is the workload; zero value means Benchmark1.
	Matrix MatrixSpec
	// Instrumentation carries the run settings (trace sink,
	// congestion, counters, model, telemetry) into every simulated
	// job unchanged; see simmpi.Instrumentation.
	simmpi.Instrumentation
}

// DefaultIterations is the fixed Benchmark1 CG iteration count used by
// the experiments (see Config.Iterations).
const DefaultIterations = 1382

// PerRankFixedBytes models minikab's per-process replicated setup state
// (mesh and index structures are duplicated on every rank during
// assembly). This is what prevents fully populating A64FX nodes with
// plain MPI in the paper (§VI.A: the largest plain-MPI configuration that
// fits on two nodes is 48 processes).
const PerRankFixedBytes = 900 * units.MiB

// Result is the outcome of a metered run.
type Result struct {
	// Seconds is the solver runtime (the quantity Figure 1/2 plot).
	Seconds float64
	// GFLOPs is the achieved rate over the solve.
	GFLOPs float64
	// Procs is the total MPI process count.
	Procs int
	// Cores is the total core count in use.
	Cores int
	// Report carries the full runtime accounting.
	Report simmpi.Report
}

func (c *Config) defaults() error {
	if c.System == nil {
		return fmt.Errorf("minikab: System is required")
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.RanksPerNode < 1 {
		c.RanksPerNode = 1
	}
	if c.ThreadsPerRank < 1 {
		c.ThreadsPerRank = 1
	}
	if c.RanksPerNode*c.ThreadsPerRank > c.System.CoresPerNode() {
		return fmt.Errorf("minikab: %d ranks × %d threads exceeds %d cores/node",
			c.RanksPerNode, c.ThreadsPerRank, c.System.CoresPerNode())
	}
	if c.Iterations == 0 {
		c.Iterations = DefaultIterations
	}
	if c.Matrix == (MatrixSpec{}) {
		c.Matrix = Benchmark1()
	}
	return nil
}

// MemoryPerNode estimates the resident bytes per node of a configuration:
// each rank holds its matrix share (12 bytes per non-zero), six solver
// vectors over its row share, and the fixed replicated setup state.
func MemoryPerNode(cfg Config) units.Bytes {
	m := cfg.Matrix
	if m == (MatrixSpec{}) {
		m = Benchmark1()
	}
	ranks := cfg.RanksPerNode
	if ranks < 1 {
		ranks = 1
	}
	nodes := cfg.Nodes
	if nodes < 1 {
		nodes = 1
	}
	procs := int64(ranks * nodes)
	perRankShare := (m.NNZ*12 + m.Rows*8*6) / procs
	return units.Bytes(ranks) * (units.Bytes(perRankShare) + PerRankFixedBytes)
}

// FitsMemory reports whether the configuration fits node memory.
func FitsMemory(cfg Config) bool {
	if cfg.System == nil {
		return false
	}
	return MemoryPerNode(cfg) <= cfg.System.MemoryPerNode()
}

// Run executes the metered minikab solve.
func Run(cfg Config) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	if !FitsMemory(cfg) {
		return Result{}, fmt.Errorf("minikab: configuration needs %v per node, node has %v",
			MemoryPerNode(cfg), cfg.System.MemoryPerNode())
	}
	sys := cfg.System
	procs := cfg.Nodes * cfg.RanksPerNode
	m := cfg.Matrix

	rowsPerRank := float64(m.Rows) / float64(procs)
	nnzPerRank := float64(m.NNZ) / float64(procs)
	haloBytes := units.Bytes(m.HaloDof * 8)

	spmv := perfmodel.WorkProfile{
		Class: perfmodel.SpMV,
		Flops: units.Flops(2 * nnzPerRank),
		Bytes: units.Bytes(12 * nnzPerRank),
		Calls: 1,
	}
	dot := perfmodel.WorkProfile{
		Class: perfmodel.DotProduct,
		Flops: units.Flops(2 * rowsPerRank),
		Bytes: units.Bytes(16 * rowsPerRank),
		Calls: 1,
	}
	axpy := perfmodel.WorkProfile{
		Class: perfmodel.VectorOp,
		Flops: units.Flops(2 * rowsPerRank),
		Bytes: units.Bytes(24 * rowsPerRank),
		Calls: 1,
	}

	model := sys.PerRankModel(cfg.RanksPerNode, cfg.ThreadsPerRank)
	job := simmpi.JobConfig{
		Procs:          procs,
		Nodes:          cfg.Nodes,
		ThreadsPerRank: cfg.ThreadsPerRank,
		RankModel:      func(int) *perfmodel.CostModel { return model },
		Fabric:         sys.NewFabric(cfg.Nodes),
		Label:          fmt.Sprintf("minikab %s n=%d r=%d t=%d", sys.ID, cfg.Nodes, cfg.RanksPerNode, cfg.ThreadsPerRank),
	}
	job.Instrumentation = cfg.Instrumentation

	rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
		const tagHalo = 11
		exchange := func() {
			// 1D plane decomposition: halo with ±1 neighbours.
			r.Region("halo-exchange")
			if r.ID() > 0 {
				r.Send(r.ID()-1, tagHalo, nil, haloBytes)
			}
			if r.ID() < r.Size()-1 {
				r.Send(r.ID()+1, tagHalo, nil, haloBytes)
			}
			if r.ID() > 0 {
				r.Recv(r.ID()-1, tagHalo)
			}
			if r.ID() < r.Size()-1 {
				r.Recv(r.ID()+1, tagHalo)
			}
			r.EndRegion()
		}
		for it := 0; it < cfg.Iterations; it++ {
			r.Region("cg-iter")
			exchange()
			r.Compute(spmv) // A·p
			r.Compute(dot)  // p·Ap
			r.AllreduceScalar(0, simmpi.OpSum)
			r.Compute(axpy) // x update
			r.Compute(axpy) // r update
			r.Compute(dot)  // r·r
			r.AllreduceScalar(0, simmpi.OpSum)
			r.Compute(axpy) // p update
			r.EndRegion()
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Seconds: rep.Seconds(),
		GFLOPs:  rep.GFLOPs(),
		Procs:   procs,
		Cores:   procs * cfg.ThreadsPerRank,
		Report:  rep,
	}, nil
}

// BestA64FXConfig returns the paper's best-performing two-node-and-up
// A64FX execution configuration: one MPI rank per CMG (4 per node), 12
// OpenMP threads each (§VI.A, Figure 1).
func BestA64FXConfig(nodes int) Config {
	return Config{
		System:         arch.MustGet(arch.A64FX),
		Nodes:          nodes,
		RanksPerNode:   4,
		ThreadsPerRank: 12,
	}
}

// FulhameConfig returns the paper's Fulhame setup: plain MPI, fully
// populated nodes (§VI.A, Figure 2).
func FulhameConfig(nodes int) Config {
	sys := arch.MustGet(arch.Fulhame)
	return Config{
		System:       sys,
		Nodes:        nodes,
		RanksPerNode: sys.CoresPerNode(),
	}
}
