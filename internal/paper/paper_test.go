package paper

import (
	"math"
	"testing"
)

func TestTableIInternalConsistency(t *testing.T) {
	t.Parallel()
	for name, row := range TableI {
		if row.CoresPerNode%row.CoresPerProcessor != 0 {
			t.Errorf("%s: %d cores/node not a multiple of %d cores/proc",
				name, row.CoresPerNode, row.CoresPerProcessor)
		}
		// Memory per core ≈ memory per node / cores (the paper rounds).
		derived := row.MemoryPerNodeGB / float64(row.CoresPerNode)
		if math.Abs(derived-row.MemoryPerCoreGB) > 0.05*row.MemoryPerCoreGB+0.01 {
			t.Errorf("%s: memory/core %v inconsistent with %v/%d",
				name, row.MemoryPerCoreGB, row.MemoryPerNodeGB, row.CoresPerNode)
		}
	}
	if len(TableI) != 5 {
		t.Errorf("Table I should have 5 systems, has %d", len(TableI))
	}
}

func TestTableIIIRatios(t *testing.T) {
	t.Parallel()
	// The optimised builds gain ≈1.43-1.44× on both systems.
	var ngioU, ngioO, fulU, fulO float64
	for _, r := range TableIII {
		switch {
		case r.System == NGIO && !r.Optimised:
			ngioU = r.GFlops
		case r.System == NGIO && r.Optimised:
			ngioO = r.GFlops
		case r.System == Fulhame && !r.Optimised:
			fulU = r.GFlops
		case r.System == Fulhame && r.Optimised:
			fulO = r.GFlops
		}
	}
	if g := ngioO / ngioU; g < 1.40 || g > 1.48 {
		t.Errorf("NGIO optimised gain %v", g)
	}
	if g := fulO / fulU; g < 1.40 || g > 1.48 {
		t.Errorf("Fulhame optimised gain %v", g)
	}
}

func TestTableIVConsistentWithTableIII(t *testing.T) {
	t.Parallel()
	// Table IV's 1-node column repeats Table III's best values.
	want := map[SystemName]float64{
		A64FX: 38.26, ARCHER: 15.65, Cirrus: 17.27, NGIO: 37.61, Fulhame: 33.80,
	}
	for sys, cols := range TableIV {
		if cols[0] != want[sys] {
			t.Errorf("%s: Table IV 1-node %v != Table III %v", sys, cols[0], want[sys])
		}
	}
}

func TestTableVIRatiosConsistent(t *testing.T) {
	t.Parallel()
	base := TableVI[A64FX]
	for sys, row := range TableVI {
		// The paper's printed ratios are rounded (ARCHER's 0.40 is
		// really 0.379); allow the rounding slack.
		if got := row.GFlops / base.GFlops; math.Abs(got-row.RatioToA64FX) > 0.025 {
			t.Errorf("%s plain ratio printed %v, computed %v", sys, row.RatioToA64FX, got)
		}
		if got := row.GFlopsFastMath / base.GFlopsFastMath; math.Abs(got-row.FastRatioToA64FX) > 0.025 {
			t.Errorf("%s fast ratio printed %v, computed %v", sys, row.FastRatioToA64FX, got)
		}
	}
}

func TestTableIXRatiosConsistent(t *testing.T) {
	t.Parallel()
	base := TableIX[A64FX]
	for sys, row := range TableIX {
		got := row.SCFCyclesPerSec / base.SCFCyclesPerSec
		if math.Abs(got-row.RatioToA64FX) > 0.015 {
			t.Errorf("%s ratio printed %v, computed %v", sys, row.RatioToA64FX, got)
		}
	}
}

func TestBenchmark1Density(t *testing.T) {
	t.Parallel()
	density := float64(Benchmark1NNZ) / float64(Benchmark1DOF)
	if density < 70 || density > 75 {
		t.Errorf("Benchmark1 density %v nnz/row, expected ≈72.7", density)
	}
}

func TestTableVIIRange(t *testing.T) {
	t.Parallel()
	for sys, pes := range TableVII {
		for i, pe := range pes {
			if pe < 0.9 || pe > 1.0 {
				t.Errorf("%s PE[%d] = %v outside plausible range", sys, i, pe)
			}
		}
	}
}

func TestTableXFulhameAnomaly(t *testing.T) {
	t.Parallel()
	// The paper's Fulhame column is non-monotone at 4 nodes (0.74 →
	// 0.65 → 0.28); the reproduction documents it as a measurement
	// outlier. Pin it so nobody "fixes" the reference data.
	f := TableX[Fulhame]
	if !(f[2] > f[3] && f[2] < f[1]*0.95) {
		t.Skip("anomaly shape changed") // defensive: data is hand-typed
	}
	if f[2] != 0.65 {
		t.Errorf("Fulhame 4-node = %v, paper prints 0.65", f[2])
	}
}

func TestClaimsCoverAllFigures(t *testing.T) {
	t.Parallel()
	figs := map[string]bool{}
	for _, c := range Claims {
		figs[c.Artifact] = true
		if c.Statement == "" {
			t.Error("empty claim")
		}
	}
	for _, f := range []string{"fig1", "fig2", "fig3", "fig4", "fig5"} {
		if !figs[f] {
			t.Errorf("no claims recorded for %s", f)
		}
	}
}
