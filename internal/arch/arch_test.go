package arch

import (
	"math"
	"testing"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/spec"
	"a64fxbench/internal/units"
)

// TestTableISpecs pins the registry to the paper's Table I.
func TestTableISpecs(t *testing.T) {
	t.Parallel()
	cases := []struct {
		id        ID
		clock     float64
		coresProc int
		coresNode int
		vector    int
		peakGF    float64
		memGB     float64
	}{
		{A64FX, 2.2, 48, 48, 512, 3379, 32},
		{ARCHER, 2.7, 12, 24, 256, 518.4, 64},
		{Cirrus, 2.1, 18, 36, 256, 1209.6, 256},
		{NGIO, 2.4, 24, 48, 512, 2662.4, 192},
		{Fulhame, 2.2, 32, 64, 128, 1126.4, 256},
	}
	for _, c := range cases {
		s := MustGet(c.id)
		if s.ClockGHz != c.clock {
			t.Errorf("%s clock = %v, want %v", c.id, s.ClockGHz, c.clock)
		}
		if s.CoresPerProcessor != c.coresProc {
			t.Errorf("%s cores/proc = %d, want %d", c.id, s.CoresPerProcessor, c.coresProc)
		}
		if s.CoresPerNode() != c.coresNode {
			t.Errorf("%s cores/node = %d, want %d", c.id, s.CoresPerNode(), c.coresNode)
		}
		if s.VectorBits != c.vector {
			t.Errorf("%s vector = %d, want %d", c.id, s.VectorBits, c.vector)
		}
		if got := s.PeakNodeGFlops(); math.Abs(got-c.peakGF) > 0.01 {
			t.Errorf("%s peak = %v GF, want %v", c.id, got, c.peakGF)
		}
		gotMem := float64(s.MemoryPerNode()) / float64(units.GiB)
		if math.Abs(gotMem-c.memGB) > 0.01 {
			t.Errorf("%s memory = %v GiB, want %v", c.id, gotMem, c.memGB)
		}
	}
}

func TestMemoryPerCore(t *testing.T) {
	t.Parallel()
	// Table I: 0.66 GB/core on A64FX, 4 GB/core on NGIO.
	a := MustGet(A64FX)
	got := float64(a.MemoryPerCore()) / float64(units.GiB)
	if math.Abs(got-0.6667) > 0.01 {
		t.Errorf("A64FX memory/core = %v GiB", got)
	}
	n := MustGet(NGIO)
	if n.MemoryPerCore() != 4*units.GiB {
		t.Errorf("NGIO memory/core = %v", n.MemoryPerCore())
	}
}

func TestGetUnknown(t *testing.T) {
	t.Parallel()
	if _, err := Get("nonexistent"); err == nil {
		t.Error("expected error for unknown system")
	}
}

func TestMustGetPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("MustGet should panic on unknown ID")
		}
	}()
	MustGet("nonexistent")
}

func TestAllOrder(t *testing.T) {
	t.Parallel()
	// All is the machine registry in registration order: the five paper
	// systems lead in IDs() order.
	all, names := All(), spec.Names()
	if len(all) != len(names) || len(all) < 5 {
		t.Fatalf("All() returned %d systems, the registry holds %d (want at least 5)", len(all), len(names))
	}
	for i, id := range IDs() {
		if all[i].ID != id {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].ID, id)
		}
	}
	for i, name := range names {
		if string(all[i].ID) != name {
			t.Errorf("All()[%d] = %s, registry order has %s", i, all[i].ID, name)
		}
	}
}

func TestA64FXBandwidthAdvantage(t *testing.T) {
	t.Parallel()
	// The HBM2 node must have several times the bandwidth of every
	// DDR system — the paper's central architectural point.
	a := MustGet(A64FX).Node.PeakBandwidth()
	for _, id := range []ID{ARCHER, Cirrus, NGIO, Fulhame} {
		o := MustGet(id).Node.PeakBandwidth()
		if float64(a) < 3*float64(o) {
			t.Errorf("A64FX bandwidth %v not ≫ %s %v", a, id, o)
		}
	}
}

func TestFulhameStreamCitation(t *testing.T) {
	t.Parallel()
	// §II: "STREAM triad memory bandwidth in excess of 240 GB/s per
	// dual-socket node" on ThunderX2.
	bw := MustGet(Fulhame).Node.PeakBandwidth()
	if bw < 240*units.GBPerSec {
		t.Errorf("Fulhame node bandwidth %v below the cited 240 GB/s", bw)
	}
}

func TestCostModelCalibrationPresent(t *testing.T) {
	t.Parallel()
	for _, s := range All() {
		m := s.CostModel()
		if len(m.Eff) == 0 {
			t.Errorf("%s has no calibration", s.ID)
		}
		for class, e := range m.Eff {
			if !e.Valid() {
				t.Errorf("%s %v efficiency %+v invalid", s.ID, class, e)
			}
		}
		for class, g := range m.FastMathGain {
			if g <= 0 || g > 3 {
				t.Errorf("%s %v fast-math gain %v implausible", s.ID, class, g)
			}
		}
	}
}

func TestPerRankCapabilityFullNode(t *testing.T) {
	t.Parallel()
	s := MustGet(A64FX)
	// 48 ranks × 1 thread: each rank gets 1/48 of flops and bandwidth.
	cap1 := s.PerRankCapability(48, 1)
	if cap1.Cores != 1 {
		t.Errorf("rank cores = %d", cap1.Cores)
	}
	wantFlops := s.Node.PeakFlops / 48
	if math.Abs(float64(cap1.PeakFlops-wantFlops)) > 1e6 {
		t.Errorf("rank flops = %v, want %v", cap1.PeakFlops, wantFlops)
	}
	wantBW := float64(s.Node.PlacementBandwidth(48)) / 48
	if math.Abs(float64(cap1.Domains[0].PeakBandwidth)-wantBW) > 1 {
		t.Errorf("rank bw = %v, want %v", cap1.Domains[0].PeakBandwidth, wantBW)
	}
	// Memory splits evenly.
	if cap1.TotalMemory() != s.MemoryPerNode()/48 {
		t.Errorf("rank memory = %v", cap1.TotalMemory())
	}
}

func TestPerRankCapabilityHybrid(t *testing.T) {
	t.Parallel()
	s := MustGet(A64FX)
	// The paper's best minikab config: 4 ranks/node × 12 threads
	// (one per CMG). Each rank owns a CMG's worth of everything.
	c := s.PerRankCapability(4, 12)
	if c.Cores != 12 {
		t.Errorf("hybrid rank cores = %d", c.Cores)
	}
	wantBW := float64(s.Node.PlacementBandwidth(48)) / 4
	if math.Abs(float64(c.Domains[0].PeakBandwidth)-wantBW) > 1 {
		t.Errorf("hybrid rank bw = %v, want %v", c.Domains[0].PeakBandwidth, wantBW)
	}
}

func TestPerRankCapabilitySingleCore(t *testing.T) {
	t.Parallel()
	// A lone rank on an idle node sees single-core bandwidth, not the
	// saturated node bandwidth — that distinction drives Table V.
	s := MustGet(NGIO)
	c := s.PerRankCapability(1, 1)
	perCore := s.Node.Domains[0].PerCoreBandwidth
	if c.Domains[0].PeakBandwidth != perCore {
		t.Errorf("single-core bw = %v, want %v", c.Domains[0].PeakBandwidth, perCore)
	}
}

func TestPerRankModelUsesCalibration(t *testing.T) {
	t.Parallel()
	m := MustGet(A64FX).PerRankModel(48, 1)
	w := perfmodel.WorkProfile{Class: perfmodel.SpMV, Flops: units.GFlop, Bytes: 1e9}
	if m.PhaseTime(w, perfmodel.PhaseOptions{Cores: 1}) <= 0 {
		t.Error("per-rank model must produce positive times")
	}
}

func TestPerRankDegenerateArgs(t *testing.T) {
	t.Parallel()
	s := MustGet(ARCHER)
	c := s.PerRankCapability(0, 0)
	if c.Cores != 1 || c.TotalMemory() != s.MemoryPerNode() {
		t.Errorf("degenerate per-rank capability %+v", c)
	}
}

func TestToolchainsTableII(t *testing.T) {
	t.Parallel()
	rows := Toolchains()
	if len(rows) < 20 {
		t.Fatalf("Table II has %d rows, expected ≥20", len(rows))
	}
	// Spot-check the A64FX HPCG row.
	tc, ok := ToolchainFor("HPCG", A64FX)
	if !ok {
		t.Fatal("missing HPCG/A64FX toolchain")
	}
	if tc.Compiler != "Fujitsu 1.2.24" || !tc.HasFastMath() {
		t.Errorf("HPCG/A64FX row wrong: %+v", tc)
	}
	// OpenSBLI has no A64FX row in the paper.
	if _, ok := ToolchainFor("OpenSBLI", A64FX); ok {
		t.Error("paper's Table II has no OpenSBLI/A64FX row")
	}
	// Benchmark groups in paper order.
	groups := ToolchainBenchmarks()
	want := []string{"HPCG", "minikab", "nekbone", "CASTEP", "COSA", "OpenSBLI"}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v", groups)
	}
	for i := range want {
		if groups[i] != want[i] {
			t.Errorf("group[%d] = %s, want %s", i, groups[i], want[i])
		}
	}
}

func TestHasFastMathDetection(t *testing.T) {
	t.Parallel()
	cases := []struct {
		flags string
		want  bool
	}{
		{"-O3 -Kfast", true},
		{"-O3 -ffast-math", true},
		{"-Ofast", true},
		{"-O3 -xCore-AVX512", false},
		{"", false},
	}
	for _, c := range cases {
		tc := Toolchain{Flags: c.flags}
		if got := tc.HasFastMath(); got != c.want {
			t.Errorf("HasFastMath(%q) = %v, want %v", c.flags, got, c.want)
		}
	}
}

func TestFabricConstruction(t *testing.T) {
	t.Parallel()
	for _, s := range All() {
		f := s.NewFabric(16)
		if f == nil || f.Topo == nil {
			t.Errorf("%s fabric construction failed", s.ID)
		}
		if f.PointToPoint(0, 1, 0) <= 0 {
			t.Errorf("%s fabric has non-positive latency", s.ID)
		}
	}
}

func TestCalibrationAccessors(t *testing.T) {
	t.Parallel()
	a, n := MustGet(A64FX), MustGet(NGIO)
	if a.Eff == nil {
		t.Error("A64FX efficiency table missing")
	}
	if a.FastMathGain == nil {
		t.Error("A64FX fast-math table missing")
	}
	// The A64FX fast-math gain on SmallGEMM is the Table VI anchor: the
	// end-to-end Nekbone gain is 312.34/175.74 ≈ 1.78, which needs a
	// larger per-kernel gain once the non-ax phases are accounted for.
	if g := a.FastMathGain[perfmodel.SmallGEMM]; g < 1.78 || g > 2.6 {
		t.Errorf("A64FX SmallGEMM gain = %v, outside calibrated range", g)
	}
	// NGIO loses performance with fast math (Table VI).
	if g := n.FastMathGain[perfmodel.SmallGEMM]; g >= 1 {
		t.Errorf("NGIO SmallGEMM gain = %v, want <1", g)
	}
}

func TestDerive(t *testing.T) {
	t.Parallel()
	const did ID = "A64FX-test-derive"
	d, err := Derive(A64FX, did, func(s *System) {
		s.Node.Domains[0].PeakBandwidth *= 2
		s.Eff[perfmodel.StencilFD] = perfmodel.Efficiency{Compute: 1, Memory: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	base := MustGet(A64FX)
	// Mutation applied to the copy only.
	if d.ID != did {
		t.Errorf("derived ID = %s, want %s", d.ID, did)
	}
	if d.Node.Domains[0].PeakBandwidth != 2*base.Node.Domains[0].PeakBandwidth {
		t.Error("mutation missing on derived system")
	}
	if base.Node.Domains[0].PeakBandwidth == d.Node.Domains[0].PeakBandwidth {
		t.Error("base memory domains mutated")
	}
	if base.Eff[perfmodel.StencilFD] == d.Eff[perfmodel.StencilFD] {
		t.Error("base calibration mutated")
	}
	// Calibration inherited.
	if d.Eff[perfmodel.SpMV] != base.Eff[perfmodel.SpMV] || len(d.CostModel().FastMathGain) == 0 {
		t.Error("derived system did not inherit the base calibration")
	}
	// A derived system is a value: the registry never sees it.
	if _, err := Get(did); err == nil {
		t.Error("derived system was registered")
	}
	if _, err := Derive("nonexistent", "x", nil); err == nil {
		t.Error("unknown base should fail")
	}
}

func TestNUMASpanningPenalty(t *testing.T) {
	t.Parallel()
	s := MustGet(A64FX)
	// One rank per CMG (12 threads): no penalty.
	within := s.PerRankCapability(4, 12)
	// One rank spanning all four CMGs (48 threads).
	spanning := s.PerRankCapability(1, 48)
	// Per-node bandwidth: within-CMG layout keeps the full node rate;
	// the spanning layout pays the cross-domain penalty.
	withinNode := 4 * float64(within.Domains[0].PeakBandwidth)
	spanningNode := float64(spanning.Domains[0].PeakBandwidth)
	if spanningNode >= withinNode {
		t.Errorf("spanning layout (%v) should trail per-CMG layout (%v)",
			spanningNode, withinNode)
	}
	if spanningNode < 0.5*withinNode {
		t.Errorf("penalty implausibly harsh: %v vs %v", spanningNode, withinNode)
	}
}

func TestTurboUnderpopulated(t *testing.T) {
	t.Parallel()
	// A single active core on NGIO clocks up; a full node does not.
	s := MustGet(NGIO)
	one := s.PerRankCapability(1, 1)
	perCoreFull := float64(s.Node.PeakFlops) / float64(s.Node.Cores)
	if float64(one.PeakFlops) <= perCoreFull {
		t.Error("single-core run should see turbo boost")
	}
	full := s.PerRankCapability(48, 1)
	if float64(full.PeakFlops)*48 > float64(s.Node.PeakFlops)*1.0001 {
		t.Error("full node must not exceed spec peak")
	}
	// The A64FX has no turbo.
	a := MustGet(A64FX)
	aOne := a.PerRankCapability(1, 1)
	if float64(aOne.PeakFlops) > float64(a.Node.PeakFlops)/48*1.0001 {
		t.Error("A64FX has no turbo; single-core peak should be 1/48 of node")
	}
}
