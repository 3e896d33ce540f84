package arch

import (
	"reflect"
	"testing"

	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// The five Table-I systems used to be Go literals in this package; they
// now load from the embedded machine specs. This test is the neutrality
// gate: the spec-loaded systems must reproduce the old hard-coded
// values bit-for-bit — every float compared with ==, not a tolerance —
// so every committed golden digest stays byte-identical. The literals
// below are the pre-spec tables, frozen.

// eff is shorthand for an Efficiency literal.
func eff(compute, memory float64) perfmodel.Efficiency {
	return perfmodel.Efficiency{Compute: compute, Memory: memory}
}

func legacyDomains(n int, cores int, peak, perCore units.ByteRate, capacity units.Bytes) []perfmodel.MemoryDomain {
	out := make([]perfmodel.MemoryDomain, n)
	for i := range out {
		out[i] = perfmodel.MemoryDomain{
			Cores:            cores,
			PeakBandwidth:    peak,
			PerCoreBandwidth: perCore,
			Capacity:         capacity,
		}
	}
	return out
}

var legacySystems = []*System{
	{
		ID:                A64FX,
		Description:       "Fujitsu A64FX test system, 48 single-processor nodes, TofuD network",
		Processor:         "Fujitsu A64FX",
		Microarch:         "SVE",
		ClockGHz:          2.2,
		CoresPerProcessor: 48,
		ProcessorsPerNode: 1,
		ThreadsPerCore:    "1",
		VectorBits:        512,
		MaxNodes:          48,
		Node: perfmodel.NodeCapability{
			Name:               "A64FX",
			Cores:              48,
			PeakFlops:          3379 * units.GFlopPerSec,
			ScalarFlopsPerCore: 2 * 2.2 * units.GFlopPerSec,
			Domains:            legacyDomains(4, 12, 210*units.GBPerSec, 30*units.GBPerSec, 8*units.GiB),
			L2PerDomain:        8 * units.MiB,
			PerCallOverhead:    units.Duration(300 * units.Nanosecond),
			L1BandwidthPerCore: 140.8 * units.GBPerSec,
			L2BandwidthPerCore: 70.4 * units.GBPerSec,
			ECMMemOverlap:      0.4,
		},
		NewFabric: netmodel.NewTofuD,
	},
	{
		ID:                ARCHER,
		Description:       "Cray XC30, dual Intel Xeon E5-2697v2, Aries dragonfly network",
		Processor:         "Intel Xeon E5-2697 v2",
		Microarch:         "IvyBridge",
		ClockGHz:          2.7,
		CoresPerProcessor: 12,
		ProcessorsPerNode: 2,
		ThreadsPerCore:    "1 or 2",
		VectorBits:        256,
		MaxNodes:          4920,
		Node: perfmodel.NodeCapability{
			Name:               "ARCHER",
			Cores:              24,
			PeakFlops:          518.4 * units.GFlopPerSec,
			ScalarFlopsPerCore: 2 * 2.7 * units.GFlopPerSec,
			Domains:            legacyDomains(2, 12, 44*units.GBPerSec, 10*units.GBPerSec, 32*units.GiB),
			L2PerDomain:        30 * units.MiB,
			PerCallOverhead:    units.Duration(250 * units.Nanosecond),
			TurboBoost1:        1.30,
			TurboFlatCores:     4,
			L1BandwidthPerCore: 172.8 * units.GBPerSec,
			L2BandwidthPerCore: 86.4 * units.GBPerSec,
			ECMCoreOverlap:     1,
		},
		NewFabric: func(int) *netmodel.Fabric { return netmodel.NewAries() },
	},
	{
		ID:                Cirrus,
		Description:       "SGI ICE XA, dual Intel Xeon E5-2695 (Broadwell), FDR InfiniBand",
		Processor:         "Intel Xeon E5-2695",
		Microarch:         "Broadwell",
		ClockGHz:          2.1,
		CoresPerProcessor: 18,
		ProcessorsPerNode: 2,
		ThreadsPerCore:    "1 or 2",
		VectorBits:        256,
		MaxNodes:          280,
		Node: perfmodel.NodeCapability{
			Name:               "Cirrus",
			Cores:              36,
			PeakFlops:          1209.6 * units.GFlopPerSec,
			ScalarFlopsPerCore: 2 * 2.1 * units.GFlopPerSec,
			Domains:            legacyDomains(2, 18, 60*units.GBPerSec, 11*units.GBPerSec, 128*units.GiB),
			L2PerDomain:        45 * units.MiB,
			PerCallOverhead:    units.Duration(250 * units.Nanosecond),
			TurboBoost1:        1.35,
			TurboFlatCores:     4,
			L1BandwidthPerCore: 134.4 * units.GBPerSec,
			L2BandwidthPerCore: 67.2 * units.GBPerSec,
			ECMCoreOverlap:     1,
		},
		NewFabric: func(int) *netmodel.Fabric { return netmodel.NewFDRInfiniBand() },
	},
	{
		ID:                NGIO,
		Description:       "Fujitsu-built system, dual Intel Xeon Platinum 8260M, OmniPath",
		Processor:         "Intel Xeon Platinum 8260M",
		Microarch:         "Cascade Lake",
		ClockGHz:          2.4,
		CoresPerProcessor: 24,
		ProcessorsPerNode: 2,
		ThreadsPerCore:    "1 or 2",
		VectorBits:        512,
		MaxNodes:          40,
		Node: perfmodel.NodeCapability{
			Name:               "EPCC NGIO",
			Cores:              48,
			PeakFlops:          2662.4 * units.GFlopPerSec,
			ScalarFlopsPerCore: 2 * 2.4 * units.GFlopPerSec,
			Domains:            legacyDomains(2, 24, 105*units.GBPerSec, 13.8*units.GBPerSec, 96*units.GiB),
			L2PerDomain:        units.Bytes(35.75 * float64(units.MiB)),
			PerCallOverhead:    units.Duration(250 * units.Nanosecond),
			TurboBoost1:        1.45,
			TurboFlatCores:     4,
			L1BandwidthPerCore: 153.6 * units.GBPerSec,
			L2BandwidthPerCore: 76.8 * units.GBPerSec,
			ECMCoreOverlap:     1,
		},
		NewFabric: func(int) *netmodel.Fabric { return netmodel.NewOmniPath() },
	},
	{
		ID:                Fulhame,
		Description:       "HPE Apollo 70, dual Marvell ThunderX2, EDR InfiniBand fat tree",
		Processor:         "Marvell ThunderX2",
		Microarch:         "ARMv8",
		ClockGHz:          2.2,
		CoresPerProcessor: 32,
		ProcessorsPerNode: 2,
		ThreadsPerCore:    "1, 2, or 4",
		VectorBits:        128,
		MaxNodes:          64,
		Node: perfmodel.NodeCapability{
			Name:               "Fulhame",
			Cores:              64,
			PeakFlops:          1126.4 * units.GFlopPerSec,
			ScalarFlopsPerCore: 2 * 2.2 * units.GFlopPerSec,
			Domains:            legacyDomains(2, 32, 122*units.GBPerSec, 9.45*units.GBPerSec, 128*units.GiB),
			L2PerDomain:        32 * units.MiB,
			PerCallOverhead:    units.Duration(250 * units.Nanosecond),
			TurboBoost1:        1.14,
			TurboFlatCores:     8,
			L1BandwidthPerCore: 140.8 * units.GBPerSec,
			L2BandwidthPerCore: 70.4 * units.GBPerSec,
			ECMCoreOverlap:     0.5,
			ECMMemOverlap:      0.2,
		},
		NewFabric: func(int) *netmodel.Fabric { return netmodel.NewEDRInfiniBand() },
	},
}

var legacyEfficiencies = map[ID]map[perfmodel.KernelClass]perfmodel.Efficiency{
	A64FX: {
		perfmodel.SpMV:          eff(0.040, 0.348),
		perfmodel.SymGS:         eff(0.030, 0.200),
		perfmodel.DotProduct:    eff(0.050, 0.527),
		perfmodel.VectorOp:      eff(0.050, 0.653),
		perfmodel.SmallGEMM:     eff(0.068, 0.550),
		perfmodel.LargeGEMM:     eff(0.560, 0.700),
		perfmodel.StencilFD:     eff(0.0164, 0.110),
		perfmodel.FluxFV:        eff(0.060, 0.350),
		perfmodel.FFTKernel:     eff(0.053, 0.400),
		perfmodel.GatherScatter: eff(0.020, 0.300),
	},
	ARCHER: {
		perfmodel.SpMV:          eff(0.080, 0.960),
		perfmodel.SymGS:         eff(0.060, 0.904),
		perfmodel.DotProduct:    eff(0.100, 0.960),
		perfmodel.VectorOp:      eff(0.100, 0.960),
		perfmodel.SmallGEMM:     eff(0.293, 0.800),
		perfmodel.LargeGEMM:     eff(0.800, 0.850),
		perfmodel.StencilFD:     eff(0.070, 0.600),
		perfmodel.FluxFV:        eff(0.090, 0.800),
		perfmodel.FFTKernel:     eff(0.180, 0.660),
		perfmodel.GatherScatter: eff(0.050, 0.600),
	},
	Cirrus: {
		perfmodel.SpMV:          eff(0.060, 0.805),
		perfmodel.SymGS:         eff(0.045, 0.727),
		perfmodel.DotProduct:    eff(0.080, 0.960),
		perfmodel.VectorOp:      eff(0.080, 0.960),
		perfmodel.SmallGEMM:     eff(0.100, 0.750),
		perfmodel.LargeGEMM:     eff(0.820, 0.850),
		perfmodel.StencilFD:     eff(0.0831, 0.600),
		perfmodel.FluxFV:        eff(0.085, 0.800),
		perfmodel.FFTKernel:     eff(0.190, 0.790),
		perfmodel.GatherScatter: eff(0.045, 0.550),
	},
	NGIO: {
		perfmodel.SpMV:          eff(0.045, 0.699),
		perfmodel.SymGS:         eff(0.035, 0.624),
		perfmodel.DotProduct:    eff(0.070, 0.936),
		perfmodel.VectorOp:      eff(0.070, 0.960),
		perfmodel.SmallGEMM:     eff(0.087, 0.700),
		perfmodel.LargeGEMM:     eff(0.850, 0.880),
		perfmodel.StencilFD:     eff(0.0615, 0.680),
		perfmodel.FluxFV:        eff(0.080, 0.800),
		perfmodel.FFTKernel:     eff(0.160, 0.690),
		perfmodel.GatherScatter: eff(0.040, 0.550),
	},
	Fulhame: {
		perfmodel.SpMV:          eff(0.110, 0.541),
		perfmodel.SymGS:         eff(0.090, 0.488),
		perfmodel.DotProduct:    eff(0.140, 0.654),
		perfmodel.VectorOp:      eff(0.140, 0.698),
		perfmodel.SmallGEMM:     eff(0.210, 0.720),
		perfmodel.LargeGEMM:     eff(0.700, 0.800),
		perfmodel.StencilFD:     eff(0.1497, 0.680),
		perfmodel.FluxFV:        eff(0.130, 0.850),
		perfmodel.FFTKernel:     eff(0.155, 0.700),
		perfmodel.GatherScatter: eff(0.080, 0.550),
	},
}

var legacyFastMathGains = map[ID]map[perfmodel.KernelClass]float64{
	A64FX: {
		perfmodel.SmallGEMM: 2.48,
		perfmodel.VectorOp:  1.60,
		perfmodel.StencilFD: 1.30,
		perfmodel.SpMV:      1.15,
		perfmodel.SymGS:     1.10,
		perfmodel.FFTKernel: 1.25,
	},
	ARCHER: {
		perfmodel.SmallGEMM: 1.05,
		perfmodel.VectorOp:  1.02,
	},
	Cirrus: {
		perfmodel.SmallGEMM: 1.03,
		perfmodel.VectorOp:  1.02,
	},
	NGIO: {
		perfmodel.SmallGEMM: 0.56,
		perfmodel.VectorOp:  0.95,
	},
	Fulhame: {
		perfmodel.SmallGEMM: 1.13,
		perfmodel.VectorOp:  1.05,
	},
}

// TestSpecReproducesTable1 pins every field of the spec-loaded systems
// against the frozen literals, exactly.
func TestSpecReproducesTable1(t *testing.T) {
	t.Parallel()
	if len(legacySystems) != len(IDs()) {
		t.Fatalf("legacy table has %d systems, want %d", len(legacySystems), len(IDs()))
	}
	for _, want := range legacySystems {
		want := want
		t.Run(string(want.ID), func(t *testing.T) {
			t.Parallel()
			got, err := Get(want.ID)
			if err != nil {
				t.Fatal(err)
			}
			// Compare everything except the fabric constructor (a func)
			// and the calibration tables (TestSpecReproducesCalibration)
			// field-for-field; floats must be identical, not close.
			gotCmp, wantCmp := *got, *want
			gotCmp.NewFabric, wantCmp.NewFabric = nil, nil
			gotCmp.Eff, gotCmp.FastMathGain = nil, nil
			if !reflect.DeepEqual(gotCmp, wantCmp) {
				t.Errorf("spec-loaded system differs from legacy literal:\n got: %+v\nwant: %+v", gotCmp, wantCmp)
			}
			for _, nodes := range []int{2, 16} {
				gf, wf := got.NewFabric(nodes), want.NewFabric(nodes)
				if gf.Name != wf.Name ||
					gf.SoftwareOverhead != wf.SoftwareOverhead ||
					gf.HopLatency != wf.HopLatency ||
					gf.LinkBandwidth != wf.LinkBandwidth ||
					gf.InjectionBandwidth != wf.InjectionBandwidth {
					t.Errorf("fabric(%d) pricing differs: got %+v want %+v", nodes, gf, wf)
				}
				if reflect.TypeOf(gf.Topo) != reflect.TypeOf(wf.Topo) {
					t.Errorf("fabric(%d) topology %T, want %T", nodes, gf.Topo, wf.Topo)
				}
				if gh, wh := gf.Topo.Hops(0, nodes-1), wf.Topo.Hops(0, nodes-1); gh != wh {
					t.Errorf("fabric(%d) hops(0,%d) = %d, want %d", nodes, nodes-1, gh, wh)
				}
			}
		})
	}
}

// TestSpecReproducesCalibration pins each system's calibration tables
// against the frozen literals, exactly.
func TestSpecReproducesCalibration(t *testing.T) {
	t.Parallel()
	for _, id := range IDs() {
		s := MustGet(id)
		if got, want := s.Eff, legacyEfficiencies[id]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: efficiency table differs from legacy literal:\n got: %v\nwant: %v", id, got, want)
		}
		if got, want := s.FastMathGain, legacyFastMathGains[id]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast-math table differs from legacy literal:\n got: %v\nwant: %v", id, got, want)
		}
	}
}
