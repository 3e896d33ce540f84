package minikab

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/linalg"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sparse"
)

// distJob builds a small job on the A64FX model.
func distJob(procs, nodes int) simmpi.JobConfig {
	sys := arch.MustGet(arch.A64FX)
	model := sys.PerRankModel(max(1, procs/max(1, nodes)), 1)
	return simmpi.JobConfig{
		Procs: procs, Nodes: nodes, ThreadsPerRank: 1,
		CostModel: model,
		Fabric:    sys.NewFabric(nodes),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestDistributedCGMatchesSerial is the end-to-end integration test: the
// distributed solve through the simulated runtime must agree with the
// serial solver to tight tolerance for various rank counts, including
// counts that do not divide the matrix size.
func TestDistributedCGMatchesSerial(t *testing.T) {
	t.Parallel()
	spec := sparse.StructuralSpec{NX: 5, NY: 5, NZ: 5, DofPerNode: 2}
	a, err := spec.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, a.N)
	for i := range xTrue {
		xTrue[i] = math.Sin(0.05 * float64(i))
	}
	b := make([]float64, a.N)
	a.SpMV(xTrue, b)

	serial, serialStats := CG(a, b, 400, 1e-10, false)
	if !serialStats.Converged {
		t.Fatal("serial CG did not converge")
	}

	for _, procs := range []int{1, 2, 3, 4, 7, 8} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			results := make([][]float64, procs)
			var mu sync.Mutex
			rep, err := simmpi.Run(distJob(procs, min(procs, 2)), func(r *simmpi.Rank) error {
				x, iters, err := DistributedCG(r, a, b, 400, 1e-10)
				if err != nil {
					return err
				}
				if iters == 0 {
					return fmt.Errorf("no iterations performed")
				}
				mu.Lock()
				results[r.ID()] = x
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every rank holds the same full solution, matching serial.
			for rank, x := range results {
				if x == nil {
					t.Fatalf("rank %d produced no solution", rank)
				}
				if d := linalg.AbsDiffMax(x, serial); d > 1e-8 {
					t.Errorf("rank %d deviates from serial by %v", rank, d)
				}
				if d := linalg.AbsDiffMax(x, xTrue); d > 1e-6 {
					t.Errorf("rank %d deviates from truth by %v", rank, d)
				}
			}
			// Virtual time advanced and communication was priced.
			if rep.Makespan <= 0 {
				t.Error("no virtual time elapsed")
			}
			if procs > 1 && rep.TotalBytesSent == 0 {
				t.Error("no bytes moved through the network model")
			}
		})
	}
}

// TestDistributedCGZeroRHS exercises the early-exit path.
func TestDistributedCGZeroRHS(t *testing.T) {
	t.Parallel()
	a, err := sparse.RandomSPD(30, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, err = simmpi.Run(distJob(3, 1), func(r *simmpi.Rank) error {
		x, iters, err := DistributedCG(r, a, make([]float64, a.N), 10, 1e-10)
		if err != nil {
			return err
		}
		if iters != 0 {
			return fmt.Errorf("zero RHS should take 0 iterations, took %d", iters)
		}
		if linalg.MaxAbs(x) != 0 {
			return fmt.Errorf("zero RHS should give zero solution")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistributedCGBadRHS exercises the validation path.
func TestDistributedCGBadRHS(t *testing.T) {
	t.Parallel()
	a, _ := sparse.RandomSPD(10, 2, 1)
	_, err := simmpi.Run(distJob(2, 1), func(r *simmpi.Rank) error {
		_, _, err := DistributedCG(r, a, make([]float64, 5), 10, 1e-10)
		return err
	})
	if err == nil {
		t.Error("wrong RHS length should fail")
	}
}

// TestDistributedCGVirtualTimeScales: more ranks on one node should not
// make the simulated solve slower than a single rank (it parallelises).
func TestDistributedCGVirtualTime(t *testing.T) {
	t.Parallel()
	a, err := sparse.RandomSPD(4000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	makespan := func(procs int) float64 {
		rep, err := simmpi.Run(distJob(procs, 1), func(r *simmpi.Rank) error {
			_, _, err := DistributedCG(r, a, b, 20, 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds()
	}
	t1 := makespan(1)
	t8 := makespan(8)
	if t8 >= t1 {
		t.Errorf("8-rank solve (%.6fs) not faster than 1-rank (%.6fs)", t8, t1)
	}
}

func TestBlockRange(t *testing.T) {
	t.Parallel()
	// 10 rows over 3 ranks: 4, 3, 3.
	cases := []struct{ id, lo, hi int }{{0, 0, 4}, {1, 4, 7}, {2, 7, 10}}
	for _, c := range cases {
		lo, hi := blockRange(10, 3, c.id)
		if lo != c.lo || hi != c.hi {
			t.Errorf("blockRange(10,3,%d) = [%d,%d), want [%d,%d)", c.id, lo, hi, c.lo, c.hi)
		}
	}
	// Coverage: every row owned exactly once for various (n, p).
	for _, n := range []int{1, 7, 100} {
		for _, p := range []int{1, 3, 8} {
			covered := make([]int, n)
			for id := 0; id < p; id++ {
				lo, hi := blockRange(n, p, id)
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d p=%d: row %d covered %d times", n, p, i, c)
				}
			}
		}
	}
}
