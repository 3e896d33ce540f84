package castep

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"a64fxbench/internal/arch"
)

// --- Plane-wave numerics validation ---

func TestFreeElectronEigenvalues(t *testing.T) {
	t.Parallel()
	// Empty lattice: the exact eigenvalues are ½|G|² = 0, ½, ½, ½, …
	h, err := NewPlaneWaveHamiltonian(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	evs := h.LowestStates(4, 200, 0.4, 1)
	sort.Float64s(evs)
	want := []float64{0, 0.5, 0.5, 0.5}
	for i := range want {
		if math.Abs(evs[i]-want[i]) > 1e-3 {
			t.Errorf("eigenvalue %d = %v, want %v", i, evs[i], want[i])
		}
	}
}

func TestPotentialShiftsGroundState(t *testing.T) {
	t.Parallel()
	// A constant potential shifts every eigenvalue by exactly c.
	n := 6
	c := 0.37
	v := make([]float64, n*n*n)
	for i := range v {
		v[i] = c
	}
	h, err := NewPlaneWaveHamiltonian(n, v)
	if err != nil {
		t.Fatal(err)
	}
	evs := h.LowestStates(1, 200, 0.4, 2)
	if math.Abs(evs[0]-c) > 1e-3 {
		t.Errorf("ground state = %v, want %v", evs[0], c)
	}
}

func TestApplyHermitian(t *testing.T) {
	t.Parallel()
	// ⟨φ|Hψ⟩ == conj(⟨ψ|Hφ⟩).
	n := 4
	v := make([]float64, n*n*n)
	for i := range v {
		v[i] = math.Sin(float64(i) * 0.3)
	}
	h, err := NewPlaneWaveHamiltonian(n, v)
	if err != nil {
		t.Fatal(err)
	}
	n3 := n * n * n
	psi := make([]complex128, n3)
	phi := make([]complex128, n3)
	for i := range psi {
		psi[i] = complex(math.Sin(float64(i)), math.Cos(float64(2*i)))
		phi[i] = complex(math.Cos(float64(3*i)), math.Sin(float64(i)*0.5))
	}
	hpsi := make([]complex128, n3)
	hphi := make([]complex128, n3)
	h.Apply(psi, hpsi)
	h.Apply(phi, hphi)
	var a, b complex128
	for i := range psi {
		a += complex(real(phi[i]), -imag(phi[i])) * hpsi[i]
		b += complex(real(psi[i]), -imag(psi[i])) * hphi[i]
	}
	diff := a - complex(real(b), -imag(b))
	if math.Hypot(real(diff), imag(diff)) > 1e-9 {
		t.Errorf("H not Hermitian: %v vs %v", a, b)
	}
}

func TestHamiltonianValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewPlaneWaveHamiltonian(1, nil); err == nil {
		t.Error("grid 1 should fail")
	}
	if _, err := NewPlaneWaveHamiltonian(4, make([]float64, 5)); err == nil {
		t.Error("wrong potential length should fail")
	}
}

func TestSubspaceFlops(t *testing.T) {
	t.Parallel()
	if SubspaceFlops(10, 100) <= 0 {
		t.Error("flop formula must be positive")
	}
	// Quadratic in bands for fixed basis (plus the cubic diag term).
	r := SubspaceFlops(20, 10000) / SubspaceFlops(10, 10000)
	if r < 3.9 || r > 4.3 {
		t.Errorf("band scaling ratio = %v, want ≈4", r)
	}
}

// --- Metered benchmark ---

func TestLegalCores(t *testing.T) {
	t.Parallel()
	// Factors of 8 (1,2,4,8) and multiples of 8.
	sys := arch.MustGet(arch.Cirrus) // 36 cores
	cs := LegalCores(sys)
	want := []int{1, 2, 4, 8, 16, 24, 32}
	if len(cs) != len(want) {
		t.Fatalf("LegalCores = %v", cs)
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Errorf("LegalCores[%d] = %d, want %d", i, cs[i], want[i])
		}
	}
	// §VII.B.1: Cirrus cannot use all 36 cores; best is 32.
	if BestCores(sys) != 32 {
		t.Errorf("Cirrus best = %d, want 32", BestCores(sys))
	}
	if BestCores(arch.MustGet(arch.A64FX)) != 48 {
		t.Error("A64FX best should be the full 48")
	}
}

// paperTable9 is Table IX: best single-node TiN performance.
var paperTable9 = map[arch.ID]struct {
	cores int
	perf  float64
}{
	arch.A64FX:   {48, 0.145},
	arch.ARCHER:  {24, 0.074},
	arch.NGIO:    {48, 0.184},
	arch.Cirrus:  {32, 0.125},
	arch.Fulhame: {64, 0.141},
}

func TestTableIX(t *testing.T) {
	t.Parallel()
	for id, want := range paperTable9 {
		res, err := Run(Config{System: arch.MustGet(id)})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Cores != want.cores {
			t.Errorf("%s cores = %d, want %d", id, res.Cores, want.cores)
		}
		if rel := math.Abs(res.SCFCyclesPerSecond-want.perf) / want.perf; rel > 0.08 {
			t.Errorf("%s = %.3f SCF c/s, paper %.3f", id, res.SCFCyclesPerSecond, want.perf)
		}
	}
}

func TestTableIXOrdering(t *testing.T) {
	t.Parallel()
	// §VII.B: NGIO fastest, then A64FX ≈ Fulhame, then Cirrus, ARCHER
	// last; A64FX beats ThunderX2 with fewer cores but does not match
	// Cascade Lake.
	perf := map[arch.ID]float64{}
	for id := range paperTable9 {
		res, err := Run(Config{System: arch.MustGet(id)})
		if err != nil {
			t.Fatal(err)
		}
		perf[id] = res.SCFCyclesPerSecond
	}
	if !(perf[arch.NGIO] > perf[arch.A64FX]) {
		t.Error("NGIO should beat A64FX on CASTEP")
	}
	if !(perf[arch.A64FX] > perf[arch.Fulhame]) {
		t.Error("A64FX should edge out Fulhame")
	}
	if !(perf[arch.Fulhame] > perf[arch.Cirrus] && perf[arch.Cirrus] > perf[arch.ARCHER]) {
		t.Error("tail ordering wrong")
	}
}

func TestFigure5MonotoneScaling(t *testing.T) {
	t.Parallel()
	// Single-node performance increases with core count on every
	// system over the legal counts.
	for _, id := range arch.IDs() {
		sys := arch.MustGet(id)
		var prev float64
		for _, c := range LegalCores(sys) {
			res, err := Run(Config{System: sys, Cores: c, Cycles: 2})
			if err != nil {
				t.Fatalf("%s %d cores: %v", id, c, err)
			}
			if res.SCFCyclesPerSecond <= prev {
				t.Errorf("%s: no gain at %d cores (%.4f vs %.4f)",
					id, c, res.SCFCyclesPerSecond, prev)
			}
			prev = res.SCFCyclesPerSecond
		}
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{}); err == nil {
		t.Error("missing system should fail")
	}
	sys := arch.MustGet(arch.A64FX)
	if _, err := Run(Config{System: sys, Cores: 100}); err == nil {
		t.Error("too many cores should fail")
	}
	if _, err := Run(Config{System: sys, Cores: 7}); err == nil {
		t.Error("core count 7 is not a factor or multiple of 8")
	}
}

// TestRunAllocations bounds a metered run's heap allocation: the
// transpose is a bytes-only all-to-all, so what a run allocates is the
// simulator's per-job state, not a block of the size it sends. Not
// parallel: TotalAlloc counts the whole process.
func TestRunAllocations(t *testing.T) {
	const bound = 256 << 10
	sys := arch.MustGet(arch.A64FX)
	for _, cores := range []int{2, 8, 48} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(Config{System: sys, Cores: cores})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d cores: %d B allocated", cores, got)
		if got >= bound {
			t.Errorf("%d cores: Run allocated %d B, bound %d B", cores, got, bound)
		}
	}
}

func TestPaperTiNConstants(t *testing.T) {
	t.Parallel()
	tc := PaperTiN()
	if tc.Bands <= 0 || tc.Grid <= 0 || tc.PlaneWaves <= 0 || tc.FFTPairsPerBandPerCycle <= 0 {
		t.Errorf("degenerate TiN case %+v", tc)
	}
}
