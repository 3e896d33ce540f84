// Distributed solve: a look under the hood. This example runs a *real*
// conjugate-gradient solve of the HPCG 27-point-stencil system across
// simulated MPI ranks: actual float64 boundary planes move through the
// TofuD network model, actual partial sums meet in real allreduces, and
// the virtual clock prices every step — while the numbers themselves are
// exact. It then cross-checks the distributed solution against a serial
// solve on the assembled sparse matrix.
//
// (This example deliberately uses the internal engine packages rather
// than the public facade, to show how the simulator is put together.)
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/linalg"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sparse"
)

func main() {
	const nx, ny, nz = 16, 16, 24
	const procs, nodes = 8, 2
	n := nx * ny * nz

	// Manufacture a problem with a known solution.
	a, err := sparse.Stencil27(nx, ny, nz)
	if err != nil {
		log.Fatal(err)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(0.02 * float64(i))
	}
	b := make([]float64, n)
	a.SpMV(xTrue, b)

	// Solve it across 8 simulated ranks on 2 A64FX nodes.
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(procs/nodes, 1)
	job := simmpi.JobConfig{
		Procs: procs, Nodes: nodes, ThreadsPerRank: 1,
		CostModel: model,
		Fabric:    sys.NewFabric(nodes),
	}
	solution := make([]float64, n)
	var mu sync.Mutex
	rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
		d, err := hpcg.NewDistributedStencilCG(r, nx, ny, nz)
		if err != nil {
			return err
		}
		lo := (n / nz) * firstPlane(nz, procs, r.ID())
		x, iters, relres := d.Solve(b[lo:lo+d.LocalLen()], 500, 1e-10)
		if r.ID() == 0 {
			fmt.Printf("rank 0: converged in %d iterations (relative residual %.2e)\n", iters, relres)
		}
		mu.Lock()
		copy(solution[lo:], x)
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	errMax := linalg.AbsDiffMax(solution, xTrue)
	fmt.Printf("solution error vs manufactured truth: %.2e\n", errMax)
	fmt.Printf("simulated runtime on %d × %s ranks over %d nodes: %.6f s\n",
		procs, sys.ID, nodes, rep.Seconds())
	fmt.Printf("network traffic: %d messages, %v\n", rep.TotalMsgs, rep.TotalBytesSent)
	fmt.Printf("mean compute/wait per rank: %.6f s / %.6f s\n",
		rep.MeanBusy.Seconds(), rep.MeanWait.Seconds())
}

// firstPlane mirrors the solver's slab distribution.
func firstPlane(nz, p, id int) int {
	base := nz / p
	rem := nz % p
	lo := id*base + id
	if id >= rem {
		lo = id*base + rem
	}
	return lo
}
