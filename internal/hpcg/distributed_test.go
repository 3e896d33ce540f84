package hpcg

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

func distJob(procs, nodes int) simmpi.JobConfig {
	sys := arch.MustGet(arch.A64FX)
	rpn := procs / nodes
	if rpn < 1 {
		rpn = 1
	}
	model := sys.PerRankModel(rpn, 1)
	return simmpi.JobConfig{
		Procs: procs, Nodes: nodes, ThreadsPerRank: 1,
		CostModel: model,
		Fabric:    sys.NewFabric(nodes),
	}
}

// serialReference solves the same system with plain CG on the assembled
// CSR matrix.
func serialReference(t *testing.T, nx, ny, nz int, b []float64, iters int, tol float64) []float64 {
	t.Helper()
	a, err := sparse.Stencil27(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	rr := linalg.Dot(r, r)
	normB2 := rr
	for it := 0; it < iters && math.Sqrt(rr/normB2) >= tol; it++ {
		a.SpMV(p, ap)
		alpha := rr / linalg.Dot(p, ap)
		linalg.Axpy(alpha, p, x)
		linalg.Axpy(-alpha, ap, r)
		rrNew := linalg.Dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		linalg.Waxpby(1, r, beta, p, p)
	}
	return x
}

// TestDistributedStencilMatchesAssembledOperator checks the matrix-free
// operator against the assembled CSR matrix, across rank counts.
func TestDistributedStencilMatchesAssembledOperator(t *testing.T) {
	t.Parallel()
	nx, ny, nz := 6, 5, 8
	a, err := sparse.Stencil27(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, a.N)
	for i := range u {
		u[i] = math.Sin(float64(i) * 0.7)
	}
	want := make([]float64, a.N)
	a.SpMV(u, want)

	for _, procs := range []int{1, 2, 3, 4, 8} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			got := make([]float64, a.N)
			var mu sync.Mutex
			_, err := simmpi.Run(distJob(procs, minInt(procs, 2)), func(r *simmpi.Rank) error {
				d, err := NewDistributedStencilCG(r, nx, ny, nz)
				if err != nil {
					return err
				}
				lo := d.z0 * nx * ny
				local := append([]float64(nil), u[lo:lo+d.LocalLen()]...)
				y := make([]float64, d.LocalLen())
				d.Apply(local, y, 10)
				mu.Lock()
				copy(got[lo:], y)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if diff := linalg.AbsDiffMax(got, want); diff > 1e-11 {
				t.Errorf("matrix-free operator deviates by %v", diff)
			}
		})
	}
}

// TestDistributedStencilCGMatchesSerial runs the full distributed solve
// and compares with the serial assembled-matrix CG.
func TestDistributedStencilCGMatchesSerial(t *testing.T) {
	t.Parallel()
	nx, ny, nz := 8, 8, 12
	n := nx * ny * nz
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.3)
	}
	serial := serialReference(t, nx, ny, nz, b, 400, 1e-11)

	for _, procs := range []int{1, 3, 4, 6} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			got := make([]float64, n)
			var mu sync.Mutex
			rep, err := simmpi.Run(distJob(procs, minInt(procs, 2)), func(r *simmpi.Rank) error {
				d, err := NewDistributedStencilCG(r, nx, ny, nz)
				if err != nil {
					return err
				}
				lo := d.z0 * nx * ny
				x, iters, relres := d.Solve(b[lo:lo+d.LocalLen()], 400, 1e-11)
				if relres > 1e-11 {
					return fmt.Errorf("did not converge: %v after %d iters", relres, iters)
				}
				mu.Lock()
				copy(got[lo:], x)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if diff := linalg.AbsDiffMax(got, serial); diff > 1e-7 {
				t.Errorf("distributed solution deviates from serial by %v", diff)
			}
			if rep.Makespan <= 0 {
				t.Error("no virtual time elapsed")
			}
			if procs > 1 && rep.TotalBytesSent == 0 {
				t.Error("no halo traffic recorded")
			}
		})
	}
}

func TestDistributedStencilValidation(t *testing.T) {
	t.Parallel()
	_, err := simmpi.Run(distJob(4, 1), func(r *simmpi.Rank) error {
		if _, err := NewDistributedStencilCG(r, 4, 4, 2); err == nil {
			return fmt.Errorf("4 ranks over 2 planes should fail")
		}
		if _, err := NewDistributedStencilCG(r, 0, 4, 8); err == nil {
			return fmt.Errorf("degenerate grid should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedStencilZeroRHS(t *testing.T) {
	t.Parallel()
	_, err := simmpi.Run(distJob(2, 1), func(r *simmpi.Rank) error {
		d, err := NewDistributedStencilCG(r, 4, 4, 4)
		if err != nil {
			return err
		}
		x, iters, _ := d.Solve(make([]float64, d.LocalLen()), 10, 1e-10)
		if iters != 0 || linalg.MaxAbs(x) != 0 {
			return fmt.Errorf("zero RHS mishandled")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockJacobiMGPreconditioner: the preconditioned distributed solve
// reaches the same answer in fewer iterations.
func TestBlockJacobiMGPreconditioner(t *testing.T) {
	t.Parallel()
	nx, ny, nz := 8, 8, 16
	n := nx * ny * nz
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.11)
	}
	serial := serialReference(t, nx, ny, nz, b, 600, 1e-11)

	run := func(precond bool) (sol []float64, iters int) {
		got := make([]float64, n)
		itersCh := make(chan int, 4)
		var mu sync.Mutex
		_, err := simmpi.Run(distJob(2, 1), func(r *simmpi.Rank) error {
			d, err := NewDistributedStencilCG(r, nx, ny, nz)
			if err != nil {
				return err
			}
			if precond {
				if err := d.EnableBlockJacobiMG(3); err != nil {
					return err
				}
			}
			lo := d.z0 * nx * ny
			x, it, relres := d.Solve(b[lo:lo+d.LocalLen()], 600, 1e-11)
			if relres > 1e-11 {
				return fmt.Errorf("did not converge: %v", relres)
			}
			itersCh <- it
			mu.Lock()
			copy(got[lo:], x)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, <-itersCh
	}

	plain, plainIters := run(false)
	pre, preIters := run(true)
	if d := linalg.AbsDiffMax(plain, serial); d > 1e-7 {
		t.Errorf("plain solve deviates by %v", d)
	}
	if d := linalg.AbsDiffMax(pre, serial); d > 1e-7 {
		t.Errorf("preconditioned solve deviates by %v", d)
	}
	if preIters >= plainIters {
		t.Errorf("MG preconditioner did not help: %d vs %d iterations", preIters, plainIters)
	}
}

func TestEnableBlockJacobiMGValidation(t *testing.T) {
	t.Parallel()
	_, err := simmpi.Run(distJob(1, 1), func(r *simmpi.Rank) error {
		d, err := NewDistributedStencilCG(r, 10, 10, 10)
		if err != nil {
			return err
		}
		// 10 planes are not divisible by 4 (3 coarsenings).
		if err := d.EnableBlockJacobiMG(3); err == nil {
			return fmt.Errorf("indivisible slab should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
