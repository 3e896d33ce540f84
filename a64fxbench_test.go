package a64fxbench_test

import (
	"strings"
	"testing"

	"a64fxbench"
)

func TestSystemsExposed(t *testing.T) {
	systems := a64fxbench.Systems()
	if len(systems) < 5 {
		t.Fatalf("expected ≥5 systems, got %d", len(systems))
	}
	ids := a64fxbench.SystemIDs()
	if len(ids) != 5 || ids[0] != a64fxbench.A64FX {
		t.Errorf("SystemIDs = %v", ids)
	}
	for _, id := range ids {
		s, err := a64fxbench.GetSystem(id)
		if err != nil || s.ID != id {
			t.Errorf("GetSystem(%s): %v", id, err)
		}
	}
	if _, err := a64fxbench.GetSystem("no-such-machine"); err == nil {
		t.Error("unknown system should fail")
	}
}

func TestExperimentsExposed(t *testing.T) {
	exps := a64fxbench.Experiments()
	if len(exps) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(exps))
	}
	if _, err := a64fxbench.GetExperiment("table3"); err != nil {
		t.Error(err)
	}
	if _, err := a64fxbench.GetExperiment("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestToolchainsExposed(t *testing.T) {
	if len(a64fxbench.Toolchains()) < 20 {
		t.Error("Table II rows missing")
	}
}

func TestDirectBenchmarkRuns(t *testing.T) {
	sys, err := a64fxbench.GetSystem(a64fxbench.A64FX)
	if err != nil {
		t.Fatal(err)
	}
	h, err := a64fxbench.RunHPCG(a64fxbench.HPCGConfig{System: sys, Nodes: 1, Iterations: 3})
	if err != nil || h.GFLOPs <= 0 {
		t.Errorf("RunHPCG: %v %v", h.GFLOPs, err)
	}
	n, err := a64fxbench.RunNekbone(a64fxbench.NekboneConfig{System: sys, Nodes: 1, Iterations: 3})
	if err != nil || n.GFLOPs <= 0 {
		t.Errorf("RunNekbone: %v %v", n.GFLOPs, err)
	}
	m, err := a64fxbench.RunMinikab(a64fxbench.MinikabConfig{System: sys, Nodes: 1, RanksPerNode: 1, Iterations: 5})
	if err != nil || m.Seconds <= 0 {
		t.Errorf("RunMinikab: %v %v", m.Seconds, err)
	}
	c, err := a64fxbench.RunCOSA(a64fxbench.COSAConfig{System: sys, Nodes: 2})
	if err != nil || c.Seconds <= 0 {
		t.Errorf("RunCOSA: %v %v", c.Seconds, err)
	}
	ca, err := a64fxbench.RunCASTEP(a64fxbench.CASTEPConfig{System: sys, Cycles: 1})
	if err != nil || ca.SCFCyclesPerSecond <= 0 {
		t.Errorf("RunCASTEP: %v %v", ca.SCFCyclesPerSecond, err)
	}
	o, err := a64fxbench.RunOpenSBLI(a64fxbench.OpenSBLIConfig{System: sys, Nodes: 1})
	if err != nil || o.Seconds <= 0 {
		t.Errorf("RunOpenSBLI: %v %v", o.Seconds, err)
	}
}

func TestMinikabMemoryHelpers(t *testing.T) {
	sys, _ := a64fxbench.GetSystem(a64fxbench.A64FX)
	full := a64fxbench.MinikabConfig{System: sys, Nodes: 2, RanksPerNode: 48}
	if a64fxbench.MinikabFitsMemory(full) {
		t.Error("fully-populated plain MPI should not fit 2 A64FX nodes")
	}
	if a64fxbench.MinikabMemoryPerNode(full) <= 0 {
		t.Error("memory estimate must be positive")
	}
}

func TestDeriveSystem(t *testing.T) {
	s, err := a64fxbench.DeriveSystem(a64fxbench.Fulhame, "Fulhame-2x", func(s *a64fxbench.System) {
		for i := range s.Node.Domains {
			s.Node.Domains[i].PeakBandwidth *= 2
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := a64fxbench.GetSystem(a64fxbench.Fulhame)
	if s.Node.PeakBandwidth() != 2*base.Node.PeakBandwidth() {
		t.Error("mutation did not apply")
	}
	// The base must be unchanged (deep-copied domains).
	if base.Node.PeakBandwidth() >= s.Node.PeakBandwidth() {
		t.Error("base system was mutated")
	}
	// A derived system is a value: nothing is registered under its ID.
	if _, err := a64fxbench.GetSystem("Fulhame-2x"); err == nil {
		t.Error("derived system was registered")
	}
	// Derived system runs benchmarks with inherited calibration.
	res, err := a64fxbench.RunHPCG(a64fxbench.HPCGConfig{System: s, Nodes: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := a64fxbench.RunHPCG(a64fxbench.HPCGConfig{System: base, Nodes: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPs <= baseRes.GFLOPs {
		t.Errorf("doubled bandwidth should speed up HPCG: %v vs %v", res.GFLOPs, baseRes.GFLOPs)
	}
}

func TestQuickExperimentEndToEnd(t *testing.T) {
	exp, err := a64fxbench.GetExperiment("table8")
	if err != nil {
		t.Fatal(err)
	}
	art, err := exp.Run(a64fxbench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := art.RenderComparison()
	if !strings.Contains(out, "A64FX") {
		t.Errorf("render missing systems: %s", out)
	}
}
