// ECM (Execution-Cache-Memory) mode: an alternative to the roofline
// evaluation that prices a kernel phase as explicit per-level transfer
// phases — in-core execution, L1↔L2 traffic, L2↔memory traffic, and
// memory(HBM/DRAM) transfers — composed under architecture-specific
// overlap rules.
//
// The formulation follows the A64FX ECM study (Alappat et al.,
// "Performance Modeling of Streaming Kernels and Sparse Matrix-Vector
// Multiplication on A64FX", arXiv:2103.03013), whose headline finding
// is that the A64FX overlaps almost nothing: in-core execution and all
// data transfers serialize, so the single-core runtime is close to the
// plain sum of the phases, and multicore performance is that chain
// scaled by cores and capped by the saturated memory bandwidth. Two
// spec-declared knobs place a machine between the fully additive A64FX
// rule and the classic overlapping x86 rule:
//
//	c = ECMCoreOverlap  — fraction of in-core time that overlaps data
//	    transfers (0 = A64FX serial rule, 1 = Intel-style T_OL)
//	m = ECMMemOverlap   — fraction of the memory transfer phase hidden
//	    under the upstream (core + L1 + L2) phases
//
// With work W on n cores the phase times are
//
//	T_core = F / Pcore(n)         in-core execution at the class's
//	                              in-core efficiency (not the roofline
//	                              calibration — see ecmCoreEff)
//	T_L1   = V_L1 / (n·b_L1)      register↔L1 operand traffic
//	T_L2   = V_L2 / (n·b_L2)      L1↔L2 traffic
//	T_mem  = V_mem / B_mem(n)     memory traffic at the saturating
//	                              placement bandwidth
//
// where V_L1/V_L2 come from CacheAmplification and V_mem is the metered
// WorkProfile traffic. The composed runtime is
//
//	chain  = (1−c)·T_core + T_L1 + T_L2 + T_memlin − hidden
//	hidden = m · min(T_memlin, (1−c)·T_core + T_L1 + T_L2)
//	T      = max(c·T_core, chain, T_mem) + T_over
//
// with T_memlin the unsaturated (linear per-core) memory time: the
// per-core chains run concurrently across cores, so the chain scales
// with n until the shared memory interface saturates and T_mem takes
// over — the standard ECM multicore saturation rule.
package perfmodel

import (
	"fmt"

	"a64fxbench/internal/units"
)

// Model selects the analytic performance model that prices compute
// phases: the calibrated roofline (the default, what every paper
// artifact pins) or the ECM memory-hierarchy model.
type Model string

// The two models. The empty string means ModelRoofline everywhere.
const (
	ModelRoofline Model = "roofline"
	ModelECM      Model = "ecm"
)

// ParseModel canonicalizes a model name; the empty string is the
// roofline default.
func ParseModel(s string) (Model, error) {
	switch Model(s) {
	case "", ModelRoofline:
		return ModelRoofline, nil
	case ModelECM:
		return ModelECM, nil
	}
	return "", fmt.Errorf("perfmodel: unknown model %q (want %q or %q)", s, ModelRoofline, ModelECM)
}

// ecmCoreEff is the per-class in-core execution efficiency: the
// fraction of vector peak the kernel loop retires with all operands in
// L1. Unlike the roofline's calibrated Efficiency.Compute — which is
// fit against end-to-end measurements and therefore absorbs memory
// effects — these are literature-grounded in-core estimates in the
// spirit of the ECM model's T_core (derived from port-throughput
// analysis): streaming kernels run near peak in-core, gather-dominated
// kernels are limited by the load pipes, generated stencil code by
// instruction overhead.
var ecmCoreEff = [NumKernelClasses]float64{
	SpMV:          0.45,
	SymGS:         0.35,
	DotProduct:    0.85,
	VectorOp:      0.90,
	SmallGEMM:     0.50,
	LargeGEMM:     0.85,
	StencilFD:     0.70,
	FluxFV:        0.75,
	FFTKernel:     0.60,
	GatherScatter: 0.40,
}

// ECMCoreEfficiency reports the class's in-core execution efficiency
// used by the ECM model's T_core phase. Unknown classes get a
// conservative scalar-ish default.
func ECMCoreEfficiency(c KernelClass) float64 {
	if c < 0 || c >= NumKernelClasses {
		return 0.25
	}
	return ecmCoreEff[c]
}

// Default per-level cache bandwidths when a machine spec declares none,
// expressed as multiples of ScalarFlopsPerCore (2 flops/cycle × clock,
// so ×32 ≡ 64 B/cycle and ×16 ≡ 32 B/cycle — typical L1 and L2 port
// widths across the study's machines).
const (
	defaultL1BytesPerScalarFlop = 32 // 64 B/cycle per core
	defaultL2BytesPerScalarFlop = 16 // 32 B/cycle per core
)

// L1Bandwidth reports the per-core L1 bandwidth the ECM model prices
// register↔L1 traffic at, falling back to 64 B/cycle when the spec
// declares none.
func (n NodeCapability) L1Bandwidth() units.ByteRate {
	if n.L1BandwidthPerCore > 0 {
		return n.L1BandwidthPerCore
	}
	return units.ByteRate(n.ScalarFlopsPerCore) * defaultL1BytesPerScalarFlop
}

// L2Bandwidth reports the per-core L1↔L2 bandwidth, falling back to
// 32 B/cycle when the spec declares none.
func (n NodeCapability) L2Bandwidth() units.ByteRate {
	if n.L2BandwidthPerCore > 0 {
		return n.L2BandwidthPerCore
	}
	return units.ByteRate(n.ScalarFlopsPerCore) * defaultL2BytesPerScalarFlop
}

// linearBandwidth is the unsaturated aggregate memory bandwidth of
// `cores` active cores: the per-core draw summed with no domain cap.
// It is ≥ PlacementBandwidth by construction, so the chain's memory
// term never exceeds the saturated one.
func (n NodeCapability) linearBandwidth(cores int) units.ByteRate {
	if cores <= 0 || len(n.Domains) == 0 {
		return 0
	}
	if cores > n.Cores {
		cores = n.Cores
	}
	return units.ByteRate(float64(cores)) * n.Domains[0].PerCoreBandwidth
}

// ECMBreakdown is the ECM model's phase split. The exact identity
//
//	Time = CoreTime + L1Time + L2Time + MemTime + Overhead − Hidden
//
// holds by construction: the four phase times are the raw (pre-overlap)
// transfer times and Hidden is the overlap credit the composition rule
// grants.
type ECMBreakdown struct {
	// Time is the composed phase duration.
	Time units.Duration
	// CoreTime is the in-core execution phase T_core.
	CoreTime units.Duration
	// L1Time and L2Time are the register↔L1 and L1↔L2 transfer phases.
	L1Time units.Duration
	L2Time units.Duration
	// MemTime is the memory transfer phase at the saturated placement
	// bandwidth (the roof the multicore chain is capped by).
	MemTime units.Duration
	// Hidden is the total time removed from the plain phase sum by the
	// overlap rules (core overlap, memory overlap, and multicore
	// concurrency of the per-core chains).
	Hidden units.Duration
	// Overhead is the per-invocation cost Calls × PerCallOverhead.
	Overhead units.Duration
	// L1Bytes and L2Bytes are the modelled per-level traffic volumes
	// (same cache model as PhaseBreakdown).
	L1Bytes units.Bytes
	L2Bytes units.Bytes
}

// clamp01 confines an overlap knob to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ECMBreakdown evaluates the phase under the ECM memory-hierarchy
// model. The node's overlap knobs select the composition rule; the
// A64FX specs declare the no-overlap in-core / partial memory overlap
// rule the ECM paper measured.
func (m *CostModel) ECMBreakdown(w WorkProfile, opt PhaseOptions) ECMBreakdown {
	cores := opt.Cores
	if cores <= 0 {
		cores = 1
	}
	ceff := ECMCoreEfficiency(w.Class)
	if opt.FastMath {
		if g, ok := m.FastMathGain[w.Class]; ok && g > 0 {
			ceff *= g
		}
		if ceff > 1 {
			ceff = 1
		}
	}
	var bd ECMBreakdown
	bd.CoreTime = units.TimeFor(float64(w.Flops), float64(m.Node.FlopRate(cores, ceff)))
	if w.Calls > 0 {
		bd.Overhead = units.Duration(w.Calls) * m.Node.PerCallOverhead
	}

	// Per-level traffic volumes: identical cache model to the roofline
	// breakdown, so the two models disagree on time, never on bytes.
	l1PerFlop, l2Amp := CacheAmplification(w.Class)
	bd.L2Bytes = units.Bytes(float64(w.Bytes) * l2Amp)
	if bd.L2Bytes < w.Bytes {
		bd.L2Bytes = w.Bytes
	}
	bd.L1Bytes = units.Bytes(float64(w.Flops) * l1PerFlop)
	if bd.L1Bytes < bd.L2Bytes {
		bd.L1Bytes = bd.L2Bytes
	}

	nc := float64(cores)
	bd.L1Time = units.TimeFor(float64(bd.L1Bytes), nc*float64(m.Node.L1Bandwidth()))
	bd.L2Time = units.TimeFor(float64(bd.L2Bytes), nc*float64(m.Node.L2Bandwidth()))
	bd.MemTime = units.TimeFor(float64(w.Bytes), float64(m.Node.PlacementBandwidth(cores)))
	tMemLin := units.TimeFor(float64(w.Bytes), float64(m.Node.linearBandwidth(cores)))

	c := clamp01(m.Node.ECMCoreOverlap)
	mo := clamp01(m.Node.ECMMemOverlap)
	upstream := units.Duration((1-c)*float64(bd.CoreTime)) + bd.L1Time + bd.L2Time
	hiddenMem := tMemLin
	if upstream < hiddenMem {
		hiddenMem = upstream
	}
	hiddenMem = units.Duration(mo * float64(hiddenMem))
	chain := upstream + tMemLin - hiddenMem
	t := chain
	if oc := units.Duration(c * float64(bd.CoreTime)); oc > t {
		t = oc
	}
	if bd.MemTime > t {
		t = bd.MemTime
	}
	bd.Time = t + bd.Overhead
	// Derive the overlap credit so the busy-partition identity is exact
	// regardless of which term of the max won. tMemLin ≤ MemTime and
	// chain ≥ (1−c)·CoreTime guarantee Hidden ≥ 0.
	bd.Hidden = bd.CoreTime + bd.L1Time + bd.L2Time + bd.MemTime + bd.Overhead - bd.Time
	return bd
}

// ECMTime returns the composed ECM phase duration (ECMBreakdown.Time).
func (m *CostModel) ECMTime(w WorkProfile, opt PhaseOptions) units.Duration {
	return m.ECMBreakdown(w, opt).Time
}
