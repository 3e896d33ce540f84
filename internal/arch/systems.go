// Package arch describes the five benchmarking systems of the study
// exactly as the paper's Table I specifies them: processor, clock, core
// counts, vector width, peak flops, memory, plus the memory-domain
// structure (CMGs on the A64FX, sockets elsewhere) and interconnect that
// the performance model needs.
//
// It also carries the Table II toolchain metadata, and every System
// carries its own calibrated per-kernel efficiency tables that turn
// hardware capability into achievable rates.
package arch

import (
	"fmt"
	"maps"

	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// ID names one of the five benchmarked systems.
type ID string

// The five systems of the study.
const (
	A64FX   ID = "A64FX"
	ARCHER  ID = "ARCHER"
	Cirrus  ID = "Cirrus"
	NGIO    ID = "EPCC NGIO"
	Fulhame ID = "Fulhame"
)

// IDs lists the systems in the paper's column order.
func IDs() []ID { return []ID{A64FX, ARCHER, Cirrus, NGIO, Fulhame} }

// System is a complete machine description: one node's capability, the
// node count, and the interconnect.
type System struct {
	// ID is the canonical system name.
	ID ID
	// Description is the one-line platform summary from §IV.
	Description string
	// Processor is the CPU product name.
	Processor string
	// Microarch is the microarchitecture label used in Table I.
	Microarch string
	// ClockGHz is the processor clock in GHz.
	ClockGHz float64
	// CoresPerProcessor and ProcessorsPerNode multiply to cores/node.
	CoresPerProcessor int
	ProcessorsPerNode int
	// ThreadsPerCore is Table I's SMT description (informational; the
	// study pins one process/thread per core throughout).
	ThreadsPerCore string
	// VectorBits is the SIMD width.
	VectorBits int
	// Node is the capability model fed to the roofline.
	Node perfmodel.NodeCapability
	// MaxNodes is the machine (or benchmark-accessible) node count.
	MaxNodes int
	// NewFabric constructs the interconnect model for a job of the
	// given node count.
	NewFabric func(nodes int) *netmodel.Fabric
	// Eff is the calibrated efficiency table: the fraction of the
	// node's capability each kernel class achieves with the paper's
	// toolchains (Table II) — the only free parameters of the
	// performance model (DESIGN.md §4). The calibration anchors:
	//   - Table III (single-node HPCG) pins SymGS/SpMV memory efficiency.
	//   - Table V (single-core minikab) pins single-stream SpMV behaviour.
	//   - Table VI (Nekbone ± fast math) pins SmallGEMM compute efficiency
	//     and the Fujitsu -Kfast gain (and the slight fast-math *loss* on
	//     NGIO: 127.19 → 90.37 GFLOP/s).
	//   - Table IX (CASTEP) pins FFT/LargeGEMM efficiency.
	//   - Table X (OpenSBLI) pins the StencilFD penalty on the A64FX.
	// Systems read from the registry share their machine spec's table,
	// which is immutable; Derive gives a copy its own.
	Eff map[perfmodel.KernelClass]perfmodel.Efficiency
	// FastMathGain is the multiplicative compute-efficiency gain per
	// kernel class under the aggressive compiler mode (-Kfast on the
	// Fujitsu toolchain, -ffast-math/-Ofast elsewhere).
	FastMathGain map[perfmodel.KernelClass]float64
}

// CoresPerNode reports the user-visible cores per node.
func (s *System) CoresPerNode() int { return s.CoresPerProcessor * s.ProcessorsPerNode }

// MemoryPerNode reports the node memory capacity.
func (s *System) MemoryPerNode() units.Bytes { return s.Node.TotalMemory() }

// MemoryPerCore reports bytes of memory per user core.
func (s *System) MemoryPerCore() units.Bytes {
	c := s.CoresPerNode()
	if c == 0 {
		return 0
	}
	return s.MemoryPerNode() / units.Bytes(c)
}

// PeakNodeGFlops reports Table I's "Maximum node DP GFLOP/s".
func (s *System) PeakNodeGFlops() float64 { return s.Node.PeakFlops.GFLOPs() }

// CostModel builds the calibrated roofline model for this system's nodes.
func (s *System) CostModel() *perfmodel.CostModel {
	return &perfmodel.CostModel{Node: s.Node, Eff: s.Eff, FastMathGain: s.FastMathGain}
}

// PerRankCapability returns the slice of a node's capability that one MPI
// rank owns when the node runs ranksPerNode ranks of threadsPerRank
// threads each, pinned round-robin across memory domains (the paper's
// methodology, §III.a). The returned capability treats the rank as a
// one-domain mini-node, which is exact for the symmetric workloads in the
// study.
func (s *System) PerRankCapability(ranksPerNode, threadsPerRank int) perfmodel.NodeCapability {
	if ranksPerNode < 1 {
		ranksPerNode = 1
	}
	if threadsPerRank < 1 {
		threadsPerRank = 1
	}
	active := ranksPerNode * threadsPerRank
	if active > s.Node.Cores {
		active = s.Node.Cores
	}
	totalBW := s.Node.PlacementBandwidth(active)
	rankBW := units.ByteRate(float64(totalBW) / float64(ranksPerNode))
	// NUMA penalty: a rank whose threads span multiple memory domains
	// (CMGs on the A64FX, sockets elsewhere) pays for cross-domain
	// traffic over the on-chip ring/interconnect. This is why one rank
	// per CMG with 12 threads is the paper's best minikab layout.
	if nd := len(s.Node.Domains); nd > 0 {
		coresPerDomain := s.Node.Cores / nd
		if coresPerDomain > 0 && threadsPerRank > coresPerDomain {
			spans := (threadsPerRank + coresPerDomain - 1) / coresPerDomain
			rankBW = units.ByteRate(float64(rankBW) / (1 + 0.15*float64(spans-1)))
		}
	}
	// Underpopulated nodes clock up (turbo); the factor decays to 1 as
	// the node fills, so fully-populated calibration anchors are
	// unaffected.
	boost := s.Node.TurboFactor(active)
	perCoreFlops := s.Node.PeakFlops / units.FlopRate(s.Node.Cores) * units.FlopRate(boost)

	totalL2 := s.Node.L2PerDomain * units.Bytes(len(s.Node.Domains))
	l2Share := totalL2 / units.Bytes(ranksPerNode)
	if l2Share > totalL2 {
		l2Share = totalL2
	}

	return perfmodel.NodeCapability{
		Name:               fmt.Sprintf("%s[%dx%d]", s.ID, ranksPerNode, threadsPerRank),
		Cores:              threadsPerRank,
		PeakFlops:          perCoreFlops * units.FlopRate(threadsPerRank),
		ScalarFlopsPerCore: s.Node.ScalarFlopsPerCore,
		Domains: []perfmodel.MemoryDomain{{
			Cores:            threadsPerRank,
			PeakBandwidth:    rankBW,
			PerCoreBandwidth: units.ByteRate(float64(rankBW) / float64(threadsPerRank)),
			Capacity:         s.MemoryPerNode() / units.Bytes(ranksPerNode),
		}},
		L2PerDomain:     l2Share,
		PerCallOverhead: s.Node.PerCallOverhead,
		// The ECM per-core cache bandwidths and overlap knobs are
		// per-core quantities; they survive rank slicing unchanged.
		L1BandwidthPerCore: s.Node.L1BandwidthPerCore,
		L2BandwidthPerCore: s.Node.L2BandwidthPerCore,
		ECMCoreOverlap:     s.Node.ECMCoreOverlap,
		ECMMemOverlap:      s.Node.ECMMemOverlap,
	}
}

// PerRankModel builds a calibrated cost model for one rank's share of a
// node under the given process/thread layout.
func (s *System) PerRankModel(ranksPerNode, threadsPerRank int) *perfmodel.CostModel {
	return &perfmodel.CostModel{
		Node:         s.PerRankCapability(ranksPerNode, threadsPerRank),
		Eff:          s.Eff,
		FastMathGain: s.FastMathGain,
	}
}

// Derive returns a new system modelled on the registered system base:
// a copy renamed to newID, whose memory domains and calibration tables
// are its own, so mutate may adjust any field (memory domains, clock,
// interconnect, efficiencies, ...) without touching the base. This is
// the entry point for ablation studies — e.g. "A64FX with DDR4 instead
// of HBM2" — which inherit the base machine's kernel efficiencies.
// Nothing is registered: the derived system lives as long as its caller
// holds it.
func Derive(base ID, newID ID, mutate func(*System)) (*System, error) {
	b, err := Get(base)
	if err != nil {
		return nil, err
	}
	s := *b
	s.ID = newID
	s.Node.Domains = append([]perfmodel.MemoryDomain(nil), b.Node.Domains...)
	s.Eff = maps.Clone(b.Eff)
	s.FastMathGain = maps.Clone(b.FastMathGain)
	if mutate != nil {
		mutate(&s)
	}
	return &s, nil
}
