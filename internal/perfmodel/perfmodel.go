// Package perfmodel converts metered kernel work into simulated execution
// time using a roofline-style analytic model.
//
// The model follows the classic two-bound formulation: a kernel phase
// running on n cores of a node takes
//
//	T = max( F / Peff(n),  B / Beff(n) ) + Tover
//
// where F is the double-precision flop count, B the effective main-memory
// traffic in bytes, Peff the achievable flop rate, Beff the achievable
// memory bandwidth, and Tover a small per-invocation overhead. Achievable
// rates are the hardware capability (package arch supplies those from the
// paper's Table I) scaled by per-kernel-class efficiency factors, which are
// calibrated once against published measurements (arch.System.Eff, read
// from each machine's embedded spec in internal/spec/specs; see DESIGN.md
// §4).
//
// Memory bandwidth follows a two-regime saturation curve per memory domain
// (a CMG on the A64FX, a socket elsewhere): bandwidth grows linearly with
// cores until the domain's peak is reached, then saturates. This is the
// behaviour STREAM sweeps show on all five machines in the study.
package perfmodel

import (
	"fmt"

	"a64fxbench/internal/units"
)

// KernelClass labels the broad performance character of a kernel so the
// model can apply class-specific efficiency factors. The classes cover the
// kernels that appear in the paper's six benchmarks.
type KernelClass int

// Kernel classes used across the benchmark suite.
const (
	// SpMV is sparse matrix-vector multiplication (CSR traversal):
	// bandwidth bound with irregular access.
	SpMV KernelClass = iota
	// SymGS is the symmetric Gauss-Seidel smoother in HPCG: bandwidth
	// bound and serialised along dependencies, the slowest class.
	SymGS
	// DotProduct is a reduction over one or two vectors.
	DotProduct
	// VectorOp is an element-wise streaming vector update (AXPY, WAXPBY,
	// scaling): pure STREAM traffic.
	VectorOp
	// SmallGEMM is a dense matrix multiply on matrices far below the
	// cache-blocking sweet spot (Nekbone's element operators).
	SmallGEMM
	// LargeGEMM is a blocked dense matrix multiply near peak.
	LargeGEMM
	// StencilFD is a regular finite-difference stencil sweep as emitted
	// by code generators (OpenSBLI's OPS backend).
	StencilFD
	// FluxFV is a hand-written finite-volume flux/residual kernel
	// (COSA's harmonic-balance multigrid solver), which vectorises far
	// better than generated stencil code on the A64FX.
	FluxFV
	// FFTKernel is a fast Fourier transform butterfly pass.
	FFTKernel
	// GatherScatter is indexed copy traffic (halo packing, spectral
	// element gather/scatter).
	GatherScatter
	// NumKernelClasses counts the classes above, so arrays indexed by
	// class can be sized statically.
	NumKernelClasses
)

// String names the class for diagnostics and tables.
func (k KernelClass) String() string {
	switch k {
	case SpMV:
		return "spmv"
	case SymGS:
		return "symgs"
	case DotProduct:
		return "dot"
	case VectorOp:
		return "vecop"
	case SmallGEMM:
		return "small-gemm"
	case LargeGEMM:
		return "large-gemm"
	case StencilFD:
		return "stencil"
	case FluxFV:
		return "flux-fv"
	case FFTKernel:
		return "fft"
	case GatherScatter:
		return "gather-scatter"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// KernelClasses lists every class, for table-driven calibration and tests.
func KernelClasses() []KernelClass {
	out := make([]KernelClass, NumKernelClasses)
	for i := range out {
		out[i] = KernelClass(i)
	}
	return out
}

// KernelClassNames lists every class name in declaration order — the
// valid key set of a machine spec's efficiency table.
func KernelClassNames() []string {
	names := make([]string, NumKernelClasses)
	for i := range names {
		names[i] = KernelClass(i).String()
	}
	return names
}

// ParseKernelClass resolves a class name as produced by String (the
// spelling machine specs use); ok is false for unknown names.
func ParseKernelClass(name string) (KernelClass, bool) {
	for i := 0; i < int(NumKernelClasses); i++ {
		if KernelClass(i).String() == name {
			return KernelClass(i), true
		}
	}
	return 0, false
}

// WorkProfile meters one kernel phase: the real operation counts produced
// by executing the actual numerical code.
type WorkProfile struct {
	Class KernelClass
	// Flops is the double-precision operation count.
	Flops units.Flops
	// Bytes is the effective main-memory traffic (reads+writes reaching
	// DRAM/HBM after the cache model has discounted reuse).
	Bytes units.Bytes
	// Calls is the number of kernel invocations folded into this
	// profile; it scales the per-call overhead.
	Calls int64
}

// Scale multiplies the profile by n (e.g. to account for repeated
// identical iterations without re-executing them).
func (w WorkProfile) Scale(n int64) WorkProfile {
	return WorkProfile{
		Class: w.Class,
		Flops: w.Flops * units.Flops(n),
		Bytes: w.Bytes * units.Bytes(n),
		Calls: w.Calls * n,
	}
}

// Efficiency holds the calibrated fraction of hardware capability a kernel
// class achieves on a particular architecture/toolchain combination.
type Efficiency struct {
	// Compute is the fraction of vector peak flops achieved when the
	// kernel is compute bound (0, 1].
	Compute float64
	// Memory is the fraction of STREAM bandwidth achieved when the
	// kernel is memory bound (0, 1].
	Memory float64
}

// Valid reports whether both factors are usable fractions.
func (e Efficiency) Valid() bool {
	return e.Compute > 0 && e.Compute <= 1 && e.Memory > 0 && e.Memory <= 1
}

// MemoryDomain describes one bandwidth domain of a node: a CMG on the
// A64FX, a socket on the x86 and ThunderX2 systems.
type MemoryDomain struct {
	// Cores sharing the domain.
	Cores int
	// PeakBandwidth is the saturated STREAM-like bandwidth of the domain.
	PeakBandwidth units.ByteRate
	// PerCoreBandwidth is the bandwidth one core can draw on its own;
	// the two-regime curve is min(n*PerCore, Peak).
	PerCoreBandwidth units.ByteRate
	// Capacity is the memory attached to this domain.
	Capacity units.Bytes
}

// Bandwidth reports the aggregate achievable bandwidth with n active cores
// in the domain, following the two-regime saturation curve.
func (d MemoryDomain) Bandwidth(n int) units.ByteRate {
	if n <= 0 {
		return 0
	}
	if n > d.Cores {
		n = d.Cores
	}
	linear := units.ByteRate(float64(n)) * d.PerCoreBandwidth
	if linear > d.PeakBandwidth {
		return d.PeakBandwidth
	}
	return linear
}

// NodeCapability is the hardware capability of one compute node as the
// cost model sees it. Package arch constructs these from Table I.
type NodeCapability struct {
	// Name identifies the node type for diagnostics.
	Name string
	// Cores is the user-visible core count per node.
	Cores int
	// PeakFlops is the maximum node double-precision flop rate
	// (Table I, "Maximum node DP GFLOP/s").
	PeakFlops units.FlopRate
	// ScalarFlops is the flop rate per core with no vectorisation at
	// all (2 flops/cycle FMA); the fast-math/vectorisation model
	// interpolates between scalar and vector peak.
	ScalarFlopsPerCore units.FlopRate
	// Domains lists the memory domains. All domains are identical on
	// every system in the study.
	Domains []MemoryDomain
	// L2PerDomain is the last-level cache per domain, used by callers'
	// cache-traffic estimates.
	L2PerDomain units.Bytes
	// PerCallOverhead is the fixed cost per kernel invocation (loop
	// setup, runtime dispatch).
	PerCallOverhead units.Duration
	// TurboBoost1 is the clock boost factor with one active core
	// relative to the all-core clock (1.0 = no turbo, the A64FX case).
	TurboBoost1 float64
	// TurboFlatCores is the active-core count up to which the full
	// boost holds; beyond it the boost decays linearly to 1.0 at the
	// full core count.
	TurboFlatCores int
	// L1BandwidthPerCore and L2BandwidthPerCore are the per-core cache
	// bandwidths the ECM model prices register↔L1 and L1↔L2 transfers
	// at; 0 selects the port-width defaults (see L1Bandwidth /
	// L2Bandwidth in ecm.go). The roofline model never reads them.
	L1BandwidthPerCore units.ByteRate
	L2BandwidthPerCore units.ByteRate
	// ECMCoreOverlap and ECMMemOverlap are the ECM composition knobs in
	// [0, 1]: the fraction of in-core time that overlaps data transfers
	// (0 = the A64FX serial rule) and the fraction of the memory phase
	// hidden under the upstream phases. See ecm.go.
	ECMCoreOverlap float64
	ECMMemOverlap  float64
}

// TurboFactor reports the clock boost when `active` cores are busy.
func (n NodeCapability) TurboFactor(active int) float64 {
	if n.TurboBoost1 <= 1 || active <= 0 {
		return 1
	}
	if active <= n.TurboFlatCores {
		return n.TurboBoost1
	}
	if active >= n.Cores || n.Cores <= n.TurboFlatCores {
		return 1
	}
	frac := float64(n.Cores-active) / float64(n.Cores-n.TurboFlatCores)
	return 1 + (n.TurboBoost1-1)*frac
}

// TotalMemory reports the node's memory capacity.
func (n NodeCapability) TotalMemory() units.Bytes {
	var total units.Bytes
	for _, d := range n.Domains {
		total += d.Capacity
	}
	return total
}

// PeakBandwidth reports the node's aggregate saturated bandwidth.
func (n NodeCapability) PeakBandwidth() units.ByteRate {
	var total units.ByteRate
	for _, d := range n.Domains {
		total += d.PeakBandwidth
	}
	return total
}

// PlacementBandwidth reports achievable aggregate bandwidth when `cores`
// cores are active, assuming the runtime pins processes round-robin across
// domains (the paper's pinning methodology, §III.a).
func (n NodeCapability) PlacementBandwidth(cores int) units.ByteRate {
	if cores <= 0 || len(n.Domains) == 0 {
		return 0
	}
	if cores > n.Cores {
		cores = n.Cores
	}
	per := cores / len(n.Domains)
	extra := cores % len(n.Domains)
	var total units.ByteRate
	for i, d := range n.Domains {
		c := per
		if i < extra {
			c++
		}
		total += d.Bandwidth(c)
	}
	return total
}

// FlopRate reports achievable flop rate with `cores` active cores at the
// given vector efficiency (fraction of the per-core share of PeakFlops).
func (n NodeCapability) FlopRate(cores int, vectorEff float64) units.FlopRate {
	if cores <= 0 || n.Cores <= 0 {
		return 0
	}
	if cores > n.Cores {
		cores = n.Cores
	}
	perCore := n.PeakFlops / units.FlopRate(n.Cores)
	eff := perCore * units.FlopRate(vectorEff)
	if eff < n.ScalarFlopsPerCore*0.05 {
		// Even scalar code retires some flops; floor the model at 5%
		// of the scalar rate to avoid pathological infinities.
		eff = n.ScalarFlopsPerCore * 0.05
	}
	return eff * units.FlopRate(cores)
}

// CostModel evaluates phase times for one node type given its calibrated
// efficiency table.
type CostModel struct {
	Node NodeCapability
	// Eff maps kernel class to calibrated efficiency on this node.
	Eff map[KernelClass]Efficiency
	// FastMathGain scales compute efficiency when the aggressive
	// compiler mode is enabled (-Kfast on Fujitsu, -ffast-math on GCC);
	// 1.0 means no gain.
	FastMathGain map[KernelClass]float64
}

// PhaseOptions modulates a phase evaluation.
type PhaseOptions struct {
	// Cores actively executing the phase on this node.
	Cores int
	// FastMath enables the aggressive-compiler efficiency gain.
	FastMath bool
}

// effFor looks up the efficiency for a class, falling back to a modest
// default so un-calibrated classes still behave plausibly.
func (m *CostModel) effFor(class KernelClass) Efficiency {
	if e, ok := m.Eff[class]; ok && e.Valid() {
		return e
	}
	return Efficiency{Compute: 0.10, Memory: 0.60}
}

// Rates are a kernel class's roofline rates on one node: everything
// PhaseTime needs besides the phase's own work. A simulated job computes
// them once per class and prices every phase of that class from them.
type Rates struct {
	// Flop is the achievable flop rate Peff(n).
	Flop units.FlopRate
	// Mem is the achievable memory bandwidth Beff(n).
	Mem units.ByteRate
	// Call is the per-invocation overhead.
	Call units.Duration
}

// Rates computes the roofline rates of a class under opt. PhaseTime and
// PhaseBreakdown price through it, so a phase priced from a table of
// Rates is bit-identical to one priced by the model directly.
func (m *CostModel) Rates(class KernelClass, opt PhaseOptions) Rates {
	cores := opt.Cores
	if cores <= 0 {
		cores = 1
	}
	eff := m.effFor(class)
	ceff := eff.Compute
	if opt.FastMath {
		if g, ok := m.FastMathGain[class]; ok && g > 0 {
			ceff *= g
		}
		if ceff > 1 {
			ceff = 1
		}
	}
	return Rates{
		Flop: m.Node.FlopRate(cores, ceff),
		Mem:  units.ByteRate(float64(m.Node.PlacementBandwidth(cores)) * eff.Memory),
		Call: m.Node.PerCallOverhead,
	}
}

// times evaluates the three roofline terms of a phase at these rates:
// the flop term, the memory term, and the per-call overhead. Time and
// Breakdown both build on it, so the two agree bit-for-bit.
func (r Rates) times(w WorkProfile) (tFlops, tBytes, overhead units.Duration) {
	tFlops = units.TimeFor(float64(w.Flops), float64(r.Flop))
	tBytes = units.TimeFor(float64(w.Bytes), float64(r.Mem))
	if w.Calls > 0 {
		overhead = units.Duration(w.Calls) * r.Call
	}
	return tFlops, tBytes, overhead
}

// Time returns the roofline duration of phase w at these rates.
func (r Rates) Time(w WorkProfile) units.Duration {
	tFlops, tBytes, overhead := r.times(w)
	t := tFlops
	if tBytes > t {
		t = tBytes
	}
	return t + overhead
}

// PhaseTime returns the simulated duration of the metered phase.
func (m *CostModel) PhaseTime(w WorkProfile, opt PhaseOptions) units.Duration {
	return m.Rates(w.Class, opt).Time(w)
}

// PhaseBreakdown splits a phase's modelled time into its roofline
// attribution — the counter-grade view the virtual PMU records. The
// identity Time = FlopTime + MemStall + Overhead holds exactly, and
// Time equals PhaseTime bit-for-bit (both evaluate the same terms).
type PhaseBreakdown struct {
	// Time is the full phase duration (== PhaseTime).
	Time units.Duration
	// FlopTime is the roofline flop term F/Peff.
	FlopTime units.Duration
	// MemStall is the memory-bound excess max(0, B/Beff − F/Peff):
	// the time the cores spend waiting on memory beyond useful compute.
	// Zero for compute-bound phases.
	MemStall units.Duration
	// Overhead is the per-invocation cost Calls × PerCallOverhead.
	Overhead units.Duration
	// L1Bytes and L2Bytes are modelled cache-level traffic estimates
	// (see CacheAmplification); the metered WorkProfile bytes are the
	// DRAM/HBM level.
	L1Bytes units.Bytes
	L2Bytes units.Bytes
}

// PhaseBreakdown evaluates the counter-grade split of a phase.
func (m *CostModel) PhaseBreakdown(w WorkProfile, opt PhaseOptions) PhaseBreakdown {
	return m.Rates(w.Class, opt).Breakdown(w)
}

// Breakdown evaluates the counter-grade split of phase w at these rates;
// its Time equals Time(w) bit-for-bit.
func (r Rates) Breakdown(w WorkProfile) PhaseBreakdown {
	tFlops, tBytes, overhead := r.times(w)
	bd := PhaseBreakdown{FlopTime: tFlops, Overhead: overhead}
	t := tFlops
	if tBytes > t {
		t = tBytes
		bd.MemStall = tBytes - tFlops
	}
	bd.Time = t + overhead
	l1PerFlop, l2Amp := CacheAmplification(w.Class)
	bd.L2Bytes = units.Bytes(float64(w.Bytes) * l2Amp)
	if bd.L2Bytes < w.Bytes {
		bd.L2Bytes = w.Bytes
	}
	bd.L1Bytes = units.Bytes(float64(w.Flops) * l1PerFlop)
	if bd.L1Bytes < bd.L2Bytes {
		bd.L1Bytes = bd.L2Bytes
	}
	return bd
}

// cacheAmp is the per-class cache-traffic estimate: L1 bytes per flop
// (register/L1 operand traffic) and the L2 amplification of DRAM bytes
// (cache-resident reuse that never reaches memory). These are model
// estimates in the spirit of the ECM model's per-level transfer
// volumes, not measurements: dense blocked kernels move far more cache
// than DRAM traffic, streaming kernels move almost the same at every
// level, and irregular kernels sit in between.
var cacheAmp = [NumKernelClasses]struct{ l1PerFlop, l2Amp float64 }{
	SpMV:          {12, 1.5},
	SymGS:         {12, 1.6},
	DotProduct:    {8, 1.0},
	VectorOp:      {12, 1.0},
	SmallGEMM:     {16, 2.0},
	LargeGEMM:     {24, 4.0},
	StencilFD:     {16, 1.8},
	FluxFV:        {14, 1.6},
	FFTKernel:     {16, 2.0},
	GatherScatter: {16, 1.3},
}

// CacheAmplification reports the class's cache-traffic model: bytes of
// L1 traffic per flop, and the L2:DRAM traffic ratio (≥ 1). Unknown
// classes get a conservative streaming profile.
func CacheAmplification(c KernelClass) (l1PerFlop, l2Amp float64) {
	if c < 0 || c >= NumKernelClasses {
		return 8, 1.0
	}
	a := cacheAmp[c]
	return a.l1PerFlop, a.l2Amp
}

// ScaleEfficiency returns a copy of the model with the listed classes'
// compute and memory efficiencies multiplied by the given factors (capped
// at 1.0). It models vendor-optimised kernel variants — e.g. the Intel-
// and Arm-optimised HPCG builds in the paper's Table III — without
// touching the base calibration.
func (m *CostModel) ScaleEfficiency(computeScale, memoryScale float64, classes ...KernelClass) *CostModel {
	eff := make(map[KernelClass]Efficiency, len(m.Eff))
	for k, v := range m.Eff {
		eff[k] = v
	}
	for _, c := range classes {
		e := m.effFor(c)
		e.Compute *= computeScale
		e.Memory *= memoryScale
		if e.Compute > 1 {
			e.Compute = 1
		}
		if e.Memory > 1 {
			e.Memory = 1
		}
		eff[c] = e
	}
	return &CostModel{Node: m.Node, Eff: eff, FastMathGain: m.FastMathGain}
}
