package perfmodel

import (
	"fmt"
	"testing"

	"a64fxbench/internal/units"
)

// propShapes are the work shapes the shared breakdown property suite
// sweeps for every kernel class: memory-heavy, flop-heavy, balanced,
// call-dominated, and empty.
func propShapes(c KernelClass) []WorkProfile {
	return []WorkProfile{
		{Class: c, Flops: units.GFlop, Bytes: 100 * 1e9},
		{Class: c, Flops: 90 * units.GFlop, Bytes: 1000},
		{Class: c, Flops: 3 * units.MFlop, Bytes: 24 * units.MiB},
		{Class: c, Flops: units.MFlop, Bytes: units.MiB, Calls: 1000},
		{Class: c},
	}
}

// propOptions are the evaluation option mixes the suite sweeps.
var propOptions = []PhaseOptions{
	{Cores: 1}, {Cores: 3}, {Cores: 8}, {Cores: 8, FastMath: true},
}

// propModels builds cost models across the overlap-rule space: the
// A64FX-style serial rule, a partially overlapping machine, and the
// fully overlapping classic rule.
func propModels() map[string]*CostModel {
	models := map[string]*CostModel{}
	for name, ov := range map[string][2]float64{
		"serial":  {0, 0},
		"a64fx":   {0, 0.4},
		"partial": {0.5, 0.3},
		"overlap": {1, 1},
	} {
		m := testModel()
		m.Node.ECMCoreOverlap = ov[0]
		m.Node.ECMMemOverlap = ov[1]
		models[name] = m
	}
	return models
}

// durTol is the busy-partition tolerance: phase times are integer
// nanoseconds derived from float64 math, so the partition identity must
// hold to within a couple of ulps of the largest term — i.e. single
// nanoseconds at these magnitudes.
const durTol = 2 * units.Duration(1)

func absDur(d units.Duration) units.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// TestBreakdownInvariants is the shared property suite over BOTH
// pricing models: for every kernel class, work shape, option mix and
// overlap rule,
//
//  1. every phase component is non-negative,
//  2. the busy partition sums to the modelled time (roofline:
//     FlopTime+MemStall+Overhead == Time exactly; ECM:
//     CoreTime+L1Time+L2Time+MemTime+Overhead−Hidden == Time within
//     1-ulp-scale tolerance),
//  3. the modelled traffic respects the hierarchy:
//     L1Bytes ≥ L2Bytes ≥ DRAM bytes,
//  4. the breakdown's Time equals the model's scalar phase time
//     bit-for-bit (counted and uncounted runs advance clocks
//     identically).
func TestBreakdownInvariants(t *testing.T) {
	t.Parallel()
	for name, m := range propModels() {
		for _, class := range KernelClasses() {
			name, m, class := name, m, class
			t.Run(fmt.Sprintf("%s/%v", name, class), func(t *testing.T) {
				t.Parallel()
				for _, w := range propShapes(class) {
					for _, opt := range propOptions {
						checkRoofline(t, m, w, opt)
						checkECM(t, m, w, opt)
					}
				}
			})
		}
	}
}

func checkRoofline(t *testing.T, m *CostModel, w WorkProfile, opt PhaseOptions) {
	t.Helper()
	bd := m.PhaseBreakdown(w, opt)
	if bd.FlopTime < 0 || bd.MemStall < 0 || bd.Overhead < 0 || bd.Time < 0 {
		t.Fatalf("roofline %v/%+v: negative component in %+v", w.Class, opt, bd)
	}
	if got := bd.FlopTime + bd.MemStall + bd.Overhead; got != bd.Time {
		t.Fatalf("roofline %v/%+v: partition %v != time %v", w.Class, opt, got, bd.Time)
	}
	if bd.L1Bytes < bd.L2Bytes || bd.L2Bytes < w.Bytes {
		t.Fatalf("roofline %v: traffic not monotone: L1 %v < L2 %v < DRAM %v",
			w.Class, bd.L1Bytes, bd.L2Bytes, w.Bytes)
	}
	if want := m.PhaseTime(w, opt); bd.Time != want {
		t.Fatalf("roofline %v/%+v: breakdown time %v, PhaseTime %v", w.Class, opt, bd.Time, want)
	}
}

func checkECM(t *testing.T, m *CostModel, w WorkProfile, opt PhaseOptions) {
	t.Helper()
	bd := m.ECMBreakdown(w, opt)
	if bd.CoreTime < 0 || bd.L1Time < 0 || bd.L2Time < 0 || bd.MemTime < 0 ||
		bd.Hidden < 0 || bd.Overhead < 0 || bd.Time < 0 {
		t.Fatalf("ecm %v/%+v: negative component in %+v", w.Class, opt, bd)
	}
	sum := bd.CoreTime + bd.L1Time + bd.L2Time + bd.MemTime + bd.Overhead - bd.Hidden
	if absDur(sum-bd.Time) > durTol {
		t.Fatalf("ecm %v/%+v: partition %v != time %v (%+v)", w.Class, opt, sum, bd.Time, bd)
	}
	if bd.L1Bytes < bd.L2Bytes || bd.L2Bytes < w.Bytes {
		t.Fatalf("ecm %v: traffic not monotone: L1 %v < L2 %v < DRAM %v",
			w.Class, bd.L1Bytes, bd.L2Bytes, w.Bytes)
	}
	if want := m.ECMTime(w, opt); bd.Time != want {
		t.Fatalf("ecm %v/%+v: breakdown time %v, ECMTime %v", w.Class, opt, bd.Time, want)
	}
	// The composed time never beats the pure memory roof: the saturated
	// memory phase is a hard floor of the ECM composition.
	if bd.Time < bd.MemTime {
		t.Fatalf("ecm %v/%+v: time %v below memory roof %v", w.Class, opt, bd.Time, bd.MemTime)
	}
	// Both models price the same traffic: byte-for-byte identical cache
	// volumes (the models disagree on time, never on bytes).
	rbd := m.PhaseBreakdown(w, opt)
	if bd.L1Bytes != rbd.L1Bytes || bd.L2Bytes != rbd.L2Bytes {
		t.Fatalf("ecm %v: traffic differs from roofline: L1 %v vs %v, L2 %v vs %v",
			w.Class, bd.L1Bytes, rbd.L1Bytes, bd.L2Bytes, rbd.L2Bytes)
	}
}

// TestParseModel pins the model-name canonicalization: "" and
// "roofline" are the default, "ecm" selects ECM, anything else fails
// with both valid spellings in the message.
func TestParseModel(t *testing.T) {
	t.Parallel()
	for s, want := range map[string]Model{
		"": ModelRoofline, "roofline": ModelRoofline, "ecm": ModelECM,
	} {
		got, err := ParseModel(s)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseModel("lookaside"); err == nil {
		t.Error("ParseModel(lookaside) succeeded, want error")
	}
}

// TestECMCoreEfficiency pins the in-core table's range and the
// conservative unknown-class fallback.
func TestECMCoreEfficiency(t *testing.T) {
	t.Parallel()
	for _, c := range KernelClasses() {
		if e := ECMCoreEfficiency(c); e <= 0 || e > 1 {
			t.Errorf("%v: in-core efficiency %v out of (0, 1]", c, e)
		}
	}
	if e := ECMCoreEfficiency(KernelClass(200)); e != 0.25 {
		t.Errorf("unknown class efficiency = %v, want 0.25", e)
	}
}

// TestECMOverlapRules pins the composition's direction: more overlap
// never slows a phase down, and the fully overlapping rule is bounded
// below by the largest single phase.
func TestECMOverlapRules(t *testing.T) {
	t.Parallel()
	w := WorkProfile{Class: SpMV, Flops: units.GFlop, Bytes: 8 * 1e9}
	opt := PhaseOptions{Cores: 4}
	serial := testModel()
	full := testModel()
	full.Node.ECMCoreOverlap = 1
	full.Node.ECMMemOverlap = 1
	ts, tf := serial.ECMTime(w, opt), full.ECMTime(w, opt)
	if tf > ts {
		t.Errorf("full overlap %v slower than serial %v", tf, ts)
	}
	bd := full.ECMBreakdown(w, opt)
	for _, ph := range []units.Duration{bd.CoreTime, bd.MemTime} {
		if bd.Time < ph {
			t.Errorf("full overlap time %v below phase floor %v", bd.Time, ph)
		}
	}
}
