package micro

import (
	"fmt"
	"math"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/spec"
	"a64fxbench/internal/units"
)

// Calibration protocol (DESIGN.md §8): a machine spec declares both a
// per-kernel efficiency table and the anchor measurements it was fitted
// against (full-node STREAM triad, the peak-flops kernel, optionally
// the 8-byte inter-node latency). Calibrate refits the table down to
// two free parameters — a memory-efficiency scale and a compute-
// efficiency scale applied uniformly across kernel classes — so the
// model reproduces the anchors, then reports how far the declared
// table sits from the refit. For a self-consistent spec (anchors
// produced by the committed model, as the embedded five are) both
// scales come back as 1.0 to within float noise.

// PeakFlops runs the peak-flops kernel — one compute-bound large-GEMM
// rank per core, arithmetic intensity high enough that no machine in
// the format's reach is memory bound — and reports the achieved
// node-level flop rate.
func PeakFlops(sys *arch.System) (units.FlopRate, error) {
	if sys == nil {
		return 0, fmt.Errorf("micro: system is required")
	}
	c := sys.CoresPerNode()
	const (
		flopsPerRank = 2e9
		reps         = 5
		// 1000 flops/byte: far beyond every machine balance point.
		intensity = 1000
	)
	w := perfmodel.WorkProfile{
		Class: perfmodel.LargeGEMM,
		Flops: units.Flops(flopsPerRank),
		Bytes: units.Bytes(flopsPerRank / intensity),
		Calls: 1,
	}
	model := sys.PerRankModel(c, 1)
	job := simmpi.JobConfig{
		Procs: c, Nodes: 1, ThreadsPerRank: 1,
		CostModel: model,
	}
	rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
		for i := 0; i < reps; i++ {
			r.Compute(w)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := flopsPerRank * float64(c) * reps
	return units.FlopRate(units.Rate(total, rep.Makespan)), nil
}

// TriadExpectation returns the plausible [lo, hi] band for the
// full-node STREAM triad on a system: hi is the calibrated VectorOp
// memory efficiency times the placement bandwidth of all cores, and lo
// backs off 10% for per-call overhead and the closing barrier. This is
// the per-system tolerance the plausibility tests use instead of a
// hard-coded fraction of peak.
func TriadExpectation(sys *arch.System) (lo, hi units.ByteRate) {
	em := 0.60 // perfmodel's fallback memory efficiency
	if e, ok := sys.Eff[perfmodel.VectorOp]; ok && e.Memory > 0 {
		em = e.Memory
	}
	hi = units.ByteRate(float64(sys.Node.PlacementBandwidth(sys.Node.Cores)) * em)
	lo = units.ByteRate(0.9 * float64(hi))
	return lo, hi
}

// Calibration is the result of refitting a machine's efficiency table
// against its declared anchors.
type Calibration struct {
	// Machine is the spec's name.
	Machine string
	// MemoryScale and ComputeScale are the two fitted free parameters:
	// uniform multipliers on the declared Memory and Compute columns
	// that make the model reproduce the anchors (1.0 = the declared
	// table already does).
	MemoryScale  float64
	ComputeScale float64
	// TriadModel/PeakModel are the model's microbenchmark results under
	// the refit table; the *Anchor fields are the spec's declarations.
	TriadModel  units.ByteRate
	TriadAnchor units.ByteRate
	PeakModel   units.FlopRate
	PeakAnchor  units.FlopRate
	// LatencyModel is the modelled 8-byte inter-node one-way latency —
	// a consistency check on the fabric section, not a fitted value
	// (the fabric is declared data). LatencyAnchor is zero when the
	// spec declares no latency anchor.
	LatencyModel  units.Duration
	LatencyAnchor units.Duration
	// Eff is the refit efficiency table (declared × fitted scales,
	// clamped to (0, 1]).
	Eff map[perfmodel.KernelClass]perfmodel.Efficiency
}

// MaxScaleError reports how far the fitted scales sit from 1 — the
// number `machines calibrate` compares against its tolerance.
func (c *Calibration) MaxScaleError() float64 {
	m := math.Abs(c.MemoryScale - 1)
	if v := math.Abs(c.ComputeScale - 1); v > m {
		m = v
	}
	return m
}

// scaleTable multiplies the compute and memory columns of a table,
// clamping to 1.
func scaleTable(base map[perfmodel.KernelClass]perfmodel.Efficiency, cs, ms float64) map[perfmodel.KernelClass]perfmodel.Efficiency {
	out := make(map[perfmodel.KernelClass]perfmodel.Efficiency, len(base))
	for k, e := range base {
		out[k] = perfmodel.Efficiency{
			Compute: math.Min(e.Compute*cs, 1),
			Memory:  math.Min(e.Memory*ms, 1),
		}
	}
	return out
}

// fitScale finds the multiplier s such that measure(s) ≈ target, by
// fixed-point iteration (measure is monotone and near-linear in s until
// the clamp or a roofline crossover bends it). maxScale caps s so no
// scaled efficiency exceeds 1.
func fitScale(target, maxScale float64, measure func(s float64) (float64, error)) (float64, error) {
	s := 1.0
	for i := 0; i < 16; i++ {
		got, err := measure(s)
		if err != nil {
			return 0, err
		}
		if got <= 0 {
			return 0, fmt.Errorf("micro: calibration kernel returned a non-positive rate")
		}
		ratio := target / got
		if math.Abs(ratio-1) < 1e-9 {
			break
		}
		s *= ratio
		if s > maxScale {
			s = maxScale
		}
	}
	return s, nil
}

// Calibrate refits the machine's efficiency table against its declared
// anchors. It registers nothing: candidate tables run on copies of the
// machine's System.
func Calibrate(m *spec.Machine) (*Calibration, error) {
	if m == nil {
		return nil, fmt.Errorf("micro: machine is required")
	}
	sys := arch.FromMachine(m)
	withEff := func(eff map[perfmodel.KernelClass]perfmodel.Efficiency) *arch.System {
		s := *sys
		s.Eff = eff
		return &s
	}
	cores := []int{m.CoresPerNode()}

	maxMem, maxComp := math.Inf(1), math.Inf(1)
	for _, e := range m.Efficiency {
		if cap := 1 / e.Memory; cap < maxMem {
			maxMem = cap
		}
		if cap := 1 / e.Compute; cap < maxComp {
			maxComp = cap
		}
	}

	ms, err := fitScale(float64(m.Anchors.TriadBandwidth), maxMem, func(s float64) (float64, error) {
		res, err := StreamTriad(withEff(scaleTable(m.Efficiency, 1, s)), cores)
		if err != nil {
			return 0, err
		}
		return float64(res[0].Bandwidth), nil
	})
	if err != nil {
		return nil, err
	}
	cs, err := fitScale(float64(m.Anchors.PeakFlops), maxComp, func(s float64) (float64, error) {
		rate, err := PeakFlops(withEff(scaleTable(m.Efficiency, s, 1)))
		return float64(rate), err
	})
	if err != nil {
		return nil, err
	}

	cal := &Calibration{
		Machine:       m.Name(),
		MemoryScale:   ms,
		ComputeScale:  cs,
		TriadAnchor:   m.Anchors.TriadBandwidth,
		PeakAnchor:    m.Anchors.PeakFlops,
		LatencyAnchor: m.Anchors.Latency,
		Eff:           scaleTable(m.Efficiency, cs, ms),
	}
	triad, err := StreamTriad(withEff(cal.Eff), cores)
	if err != nil {
		return nil, err
	}
	cal.TriadModel = triad[0].Bandwidth
	peak, err := PeakFlops(withEff(cal.Eff))
	if err != nil {
		return nil, err
	}
	cal.PeakModel = peak
	pp, err := PingPong(sys, []units.Bytes{8})
	if err != nil {
		return nil, err
	}
	cal.LatencyModel = pp[0].HalfRoundTrip
	return cal, nil
}
