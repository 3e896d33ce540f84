package netmodel

import (
	"testing"
	"testing/quick"

	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
)

func testFabric() *Fabric {
	return &Fabric{
		Name:             "test",
		Topo:             &topo.FatTree{NodesPerLeaf: 2},
		SoftwareOverhead: units.Microsecond,
		HopLatency:       units.Duration(100 * units.Nanosecond),
		LinkBandwidth:    10 * units.GBPerSec,
	}
}

func TestPointToPointLatency(t *testing.T) {
	t.Parallel()
	f := testFabric()
	// Same leaf (nodes 0,1): 1µs + 2×0.1µs = 1.2µs.
	got := f.PointToPoint(0, 1, 0)
	want := units.Duration(1200 * units.Nanosecond)
	if got != want {
		t.Errorf("zero-byte PointToPoint(0,1) = %v, want %v", got, want)
	}
	// Cross leaf: 1µs + 4×0.1µs.
	if got := f.PointToPoint(0, 2, 0); got != units.Duration(1400*units.Nanosecond) {
		t.Errorf("zero-byte PointToPoint(0,2) = %v", got)
	}
}

func TestPointToPointBandwidthTerm(t *testing.T) {
	t.Parallel()
	f := testFabric()
	// 10 MB at 10 GB/s = 1 ms, dwarfing latency.
	got := f.PointToPoint(0, 2, 10*1000*1000).Seconds()
	if got < 0.001 || got > 0.0011 {
		t.Errorf("10MB transfer = %v s, want ≈0.001", got)
	}
}

func TestIntraNodeShortCircuit(t *testing.T) {
	t.Parallel()
	f := testFabric()
	intra := f.PointToPoint(3, 3, 64*units.KiB)
	inter := f.PointToPoint(0, 2, 64*units.KiB)
	if intra >= inter {
		t.Errorf("intra-node (%v) should beat inter-node (%v)", intra, inter)
	}
}

func TestInjectionCap(t *testing.T) {
	t.Parallel()
	f := testFabric()
	f.InjectionBandwidth = 1 * units.GBPerSec
	slow := f.PointToPoint(0, 2, 1000*1000*1000)
	f.InjectionBandwidth = 0
	fast := f.PointToPoint(0, 2, 1000*1000*1000)
	if slow <= fast {
		t.Errorf("injection cap should slow transfers: capped=%v uncapped=%v", slow, fast)
	}
}

func TestAllreduceScaling(t *testing.T) {
	t.Parallel()
	f := testFabric()
	// Single process: free.
	if f.Allreduce(1, 1, 8) != 0 {
		t.Error("1-process allreduce should be free")
	}
	// More nodes cost more.
	t2 := f.Allreduce(2, 2, 8)
	t16 := f.Allreduce(16, 16, 8)
	if t16 <= t2 {
		t.Errorf("allreduce should grow with node count: 2→%v 16→%v", t2, t16)
	}
	// Large payloads switch to Rabenseifner and remain finite/monotone.
	small := f.Allreduce(8, 8, 1*units.KiB)
	large := f.Allreduce(8, 8, 16*units.MiB)
	if large <= small {
		t.Errorf("large allreduce should cost more: %v vs %v", large, small)
	}
}

func TestAllreduceIntraNodeOnly(t *testing.T) {
	t.Parallel()
	f := testFabric()
	// 8 procs on one node still pay shared-memory combining.
	if f.Allreduce(8, 1, 1024) <= 0 {
		t.Error("intra-node allreduce must cost time")
	}
}

func TestStandardFabrics(t *testing.T) {
	t.Parallel()
	fabrics := []*Fabric{
		NewTofuD(48), NewAries(), NewFDRInfiniBand(), NewEDRInfiniBand(), NewOmniPath(),
	}
	for _, f := range fabrics {
		if f.Name == "" || f.Topo == nil {
			t.Errorf("fabric %+v incomplete", f)
		}
		lat := f.PointToPoint(0, 1, 0).Seconds()
		if lat < 0.5e-6 || lat > 5e-6 {
			t.Errorf("%s latency %v s outside credible MPI range", f.Name, lat)
		}
		// 1 MB transfer should complete in well under 1 ms on all.
		tt := f.PointToPoint(0, 1, 1000*1000).Seconds()
		if tt <= 0 || tt > 1e-3 {
			t.Errorf("%s 1MB transfer = %v s", f.Name, tt)
		}
	}
}

func TestTofuDLowerLatencyThanOmniPath(t *testing.T) {
	t.Parallel()
	// The paper observes no network penalty on the A64FX system vs NGIO;
	// our model encodes TofuD as at least as fast at small messages.
	tofu := NewTofuD(48)
	opa := NewOmniPath()
	if tofu.PointToPoint(0, 1, 0) > opa.PointToPoint(0, 1, 0) {
		t.Error("TofuD should not have worse latency than OmniPath")
	}
}

// Property: point-to-point cost is symmetric and monotone in payload.
func TestPointToPointProperties(t *testing.T) {
	t.Parallel()
	f := testFabric()
	prop := func(aRaw, bRaw uint8, s1Raw, s2Raw uint16) bool {
		a, b := int(aRaw)%16, int(bRaw)%16
		s1 := units.Bytes(s1Raw)
		s2 := units.Bytes(s2Raw)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		if f.PointToPoint(a, b, s1) != f.PointToPoint(b, a, s1) {
			return false
		}
		return f.PointToPoint(a, b, s1) <= f.PointToPoint(a, b, s2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: collective costs are monotone in process count at fixed
// payload and nodes = procs.
func TestCollectiveMonotoneProperty(t *testing.T) {
	t.Parallel()
	f := testFabric()
	prop := func(pRaw uint8) bool {
		p := int(pRaw%63) + 1
		return f.Allreduce(p, p, 1024) <= f.Allreduce(p+1, p+1, 1024)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
