package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"a64fxbench/internal/units"
)

// testNode builds a simple two-domain node: 8 cores, 100 GFLOP/s peak,
// 2×50 GB/s domains, 16 GiB memory.
func testNode() NodeCapability {
	dom := MemoryDomain{
		Cores:            4,
		PeakBandwidth:    50 * units.GBPerSec,
		PerCoreBandwidth: 20 * units.GBPerSec,
		Capacity:         8 * units.GiB,
	}
	return NodeCapability{
		Name:               "test",
		Cores:              8,
		PeakFlops:          100 * units.GFlopPerSec,
		ScalarFlopsPerCore: 2 * units.GFlopPerSec,
		Domains:            []MemoryDomain{dom, dom},
		L2PerDomain:        8 * units.MiB,
	}
}

func testModel() *CostModel {
	return &CostModel{
		Node: testNode(),
		Eff: map[KernelClass]Efficiency{
			SpMV:      {Compute: 0.10, Memory: 0.80},
			LargeGEMM: {Compute: 0.90, Memory: 0.90},
		},
		FastMathGain: map[KernelClass]float64{LargeGEMM: 1.5},
	}
}

func TestKernelClassString(t *testing.T) {
	t.Parallel()
	for _, k := range KernelClasses() {
		if s := k.String(); s == "" || s[0] == 'k' && s != "kernel(0)" {
			t.Errorf("class %d has suspicious name %q", int(k), s)
		}
	}
	if KernelClass(99).String() != "kernel(99)" {
		t.Error("unknown class should format numerically")
	}
}

func TestWorkProfileScale(t *testing.T) {
	t.Parallel()
	w := WorkProfile{Class: SpMV, Flops: 10, Bytes: 100, Calls: 1}
	s := w.Scale(3)
	if s.Flops != 30 || s.Bytes != 300 || s.Calls != 3 || s.Class != SpMV {
		t.Errorf("Scale result %+v", s)
	}
}

func TestMemoryDomainBandwidthSaturation(t *testing.T) {
	t.Parallel()
	d := testNode().Domains[0]
	if got := d.Bandwidth(1); got != 20*units.GBPerSec {
		t.Errorf("1 core bw = %v", got)
	}
	if got := d.Bandwidth(2); got != 40*units.GBPerSec {
		t.Errorf("2 core bw = %v", got)
	}
	// 3 cores: 60 > peak 50, saturate.
	if got := d.Bandwidth(3); got != 50*units.GBPerSec {
		t.Errorf("3 core bw = %v", got)
	}
	if got := d.Bandwidth(100); got != 50*units.GBPerSec {
		t.Errorf("overfull bw = %v", got)
	}
	if d.Bandwidth(0) != 0 {
		t.Error("0 cores should have 0 bandwidth")
	}
}

func TestPlacementBandwidthRoundRobin(t *testing.T) {
	t.Parallel()
	n := testNode()
	// 2 cores round-robin over 2 domains: one core each = 2×20.
	if got := n.PlacementBandwidth(2); got != 40*units.GBPerSec {
		t.Errorf("2-core placement = %v", got)
	}
	// Full node saturates both domains.
	if got := n.PlacementBandwidth(8); got != 100*units.GBPerSec {
		t.Errorf("full placement = %v", got)
	}
	// Odd core count splits unevenly: 2+1 cores = 40+20.
	if got := n.PlacementBandwidth(3); got != 60*units.GBPerSec {
		t.Errorf("3-core placement = %v", got)
	}
}

func TestNodeTotals(t *testing.T) {
	t.Parallel()
	n := testNode()
	if n.TotalMemory() != 16*units.GiB {
		t.Errorf("TotalMemory = %v", n.TotalMemory())
	}
	if n.PeakBandwidth() != 100*units.GBPerSec {
		t.Errorf("PeakBandwidth = %v", n.PeakBandwidth())
	}
}

func TestFlopRate(t *testing.T) {
	t.Parallel()
	n := testNode()
	// Full node at 100% vector efficiency = peak.
	if got := n.FlopRate(8, 1.0); got != 100*units.GFlopPerSec {
		t.Errorf("full rate = %v", got)
	}
	// Half node at 50% = 25 GF/s.
	if got := n.FlopRate(4, 0.5); got != 25*units.GFlopPerSec {
		t.Errorf("half rate = %v", got)
	}
	// Floor: absurdly small efficiency is clamped above zero.
	if got := n.FlopRate(1, 1e-9); got <= 0 {
		t.Errorf("floored rate = %v", got)
	}
}

func TestPhaseTimeMemoryBound(t *testing.T) {
	t.Parallel()
	m := testModel()
	// SpMV: 1 GFLOP, 100 GB traffic on full node. Memory clearly binds:
	// 100e9 bytes / (100 GB/s × 0.8) = 1.25 s.
	w := WorkProfile{Class: SpMV, Flops: units.GFlop, Bytes: 100 * 1e9}
	got := m.PhaseTime(w, PhaseOptions{Cores: 8}).Seconds()
	if math.Abs(got-1.25) > 1e-9 {
		t.Errorf("memory-bound time = %v, want 1.25", got)
	}
}

func TestPhaseTimeComputeBound(t *testing.T) {
	t.Parallel()
	m := testModel()
	// GEMM: 90 GFLOP, tiny traffic. 90e9 / (100e9×0.9) = 1.0 s.
	w := WorkProfile{Class: LargeGEMM, Flops: 90 * units.GFlop, Bytes: 1000}
	got := m.PhaseTime(w, PhaseOptions{Cores: 8}).Seconds()
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("compute-bound time = %v, want 1.0", got)
	}
}

func TestFastMathGain(t *testing.T) {
	t.Parallel()
	m := testModel()
	w := WorkProfile{Class: LargeGEMM, Flops: 90 * units.GFlop, Bytes: 1000}
	base := m.PhaseTime(w, PhaseOptions{Cores: 8})
	fast := m.PhaseTime(w, PhaseOptions{Cores: 8, FastMath: true})
	if !(fast < base) {
		t.Errorf("fast math should be faster: base=%v fast=%v", base, fast)
	}
	// Gain 1.5 on base efficiency 0.9 caps at 1.0, so the realised
	// speedup is 1/0.9.
	ratio := base.Seconds() / fast.Seconds()
	if math.Abs(ratio-1/0.9) > 1e-6 {
		t.Errorf("fast-math speedup = %v, want %v", ratio, 1/0.9)
	}
	// Gain is capped at 100% efficiency.
	m.FastMathGain[LargeGEMM] = 100
	capped := m.PhaseTime(w, PhaseOptions{Cores: 8, FastMath: true}).Seconds()
	want := 0.9 // 90 GFLOP at full 100 GF/s peak
	if math.Abs(capped-want) > 1e-9 {
		t.Errorf("capped time = %v, want %v", capped, want)
	}
}

func TestPerCallOverhead(t *testing.T) {
	t.Parallel()
	m := testModel()
	m.Node.PerCallOverhead = units.Microsecond
	w := WorkProfile{Class: SpMV, Flops: 1, Bytes: 1, Calls: 1000}
	got := m.PhaseTime(w, PhaseOptions{Cores: 8})
	if got < units.Millisecond {
		t.Errorf("1000 calls at 1µs should cost ≥1ms, got %v", got)
	}
}

func TestUncalibratedClassFallback(t *testing.T) {
	t.Parallel()
	m := testModel()
	w := WorkProfile{Class: FFTKernel, Flops: units.GFlop, Bytes: units.GiB}
	if m.PhaseTime(w, PhaseOptions{Cores: 4}) <= 0 {
		t.Error("uncalibrated class must still cost time")
	}
}

// Property: phase time is monotone non-increasing in core count for a
// fixed profile (more cores never slows the model down).
func TestPhaseTimeMonotoneCores(t *testing.T) {
	t.Parallel()
	m := testModel()
	w := WorkProfile{Class: SpMV, Flops: 10 * units.GFlop, Bytes: 10 * 1e9}
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw%8) + 1
		b := int(bRaw%8) + 1
		if a > b {
			a, b = b, a
		}
		ta := m.PhaseTime(w, PhaseOptions{Cores: a})
		tb := m.PhaseTime(w, PhaseOptions{Cores: b})
		return tb <= ta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: phase time is additive-superadditive under profile scaling:
// time(k×w) == k×time(w) exactly for this linear model (within ns
// quantisation).
func TestPhaseTimeLinearInWork(t *testing.T) {
	t.Parallel()
	m := testModel()
	f := func(kRaw uint8) bool {
		k := int64(kRaw%16) + 1
		w := WorkProfile{Class: SpMV, Flops: units.GFlop, Bytes: 1e9}
		t1 := m.PhaseTime(w, PhaseOptions{Cores: 8}).Seconds()
		tk := m.PhaseTime(w.Scale(k), PhaseOptions{Cores: 8}).Seconds()
		return math.Abs(tk-float64(k)*t1) < 1e-6*float64(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTurboFactor(t *testing.T) {
	t.Parallel()
	n := testNode()
	n.TurboBoost1 = 1.4
	n.TurboFlatCores = 2
	if got := n.TurboFactor(1); got != 1.4 {
		t.Errorf("1 core boost = %v", got)
	}
	if got := n.TurboFactor(2); got != 1.4 {
		t.Errorf("flat-core boost = %v", got)
	}
	// Full node: no boost.
	if got := n.TurboFactor(8); got != 1.0 {
		t.Errorf("full-node boost = %v", got)
	}
	// Between flat and full: linear decay, monotone non-increasing.
	prev := 1.41
	for c := 1; c <= 8; c++ {
		b := n.TurboFactor(c)
		if b > prev+1e-12 {
			t.Errorf("boost increased at %d cores: %v > %v", c, b, prev)
		}
		prev = b
	}
	// No turbo configured: always 1.
	plain := testNode()
	if plain.TurboFactor(1) != 1 {
		t.Error("no-turbo node should report 1")
	}
	if n.TurboFactor(0) != 1 {
		t.Error("0 active cores should report 1")
	}
}

func TestScaleEfficiency(t *testing.T) {
	t.Parallel()
	m := testModel()
	scaled := m.ScaleEfficiency(1, 1.1, SpMV)
	base := m.Eff[SpMV]
	got := scaled.Eff[SpMV]
	if math.Abs(got.Memory-base.Memory*1.1) > 1e-12 {
		t.Errorf("memory eff = %v, want %v", got.Memory, base.Memory*1.1)
	}
	if got.Compute != base.Compute {
		t.Errorf("compute eff changed: %v", got.Compute)
	}
	// Other classes untouched.
	if scaled.Eff[LargeGEMM] != m.Eff[LargeGEMM] {
		t.Error("unrelated class modified")
	}
	// Original untouched.
	if m.Eff[SpMV] != base {
		t.Error("base model mutated")
	}
	// Capping at 1.0.
	capped := m.ScaleEfficiency(100, 100, LargeGEMM)
	if e := capped.Eff[LargeGEMM]; e.Compute != 1 || e.Memory != 1 {
		t.Errorf("capping failed: %+v", e)
	}
	// Uncalibrated class gets the fallback before scaling.
	fb := m.ScaleEfficiency(2, 1, FFTKernel)
	if fb.Eff[FFTKernel].Compute <= 0 {
		t.Error("fallback scaling broken")
	}
}
