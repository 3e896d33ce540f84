package core

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/micro"
	"a64fxbench/internal/nekbone"
	"a64fxbench/internal/units"
)

// ext-machine runs the calibrated single-node probe suite on any
// registered machine — embedded Table-I system, `-specs DIR` load, or a
// spec passed by value in the request. It is the machine-parameterized
// experiment: Options.Machine picks the target (default A64FX), and the
// machine name is part of ArtifactKey, so artifacts for different
// machines never share a cache slot. When the machine is spec-backed,
// its declared anchors appear in the paper-reference column so drift is
// visible in the standard comparison rendering.
var _ = registerExt(&Experiment{
	ID:    "ext-machine",
	Title: "Machine probe: single-node suite on a declared machine",
	Kind:  Table,
	Description: "Runs the calibration microbenchmarks (STREAM triad, " +
		"peak-flops kernel, ping-pong latency) plus single-node HPCG and " +
		"Nekbone on the machine named by the request (default A64FX). " +
		"Declared spec anchors fill the reference column.",
	Run: func(opt Options) (*Artifact, error) {
		name := opt.Machine
		if name == "" {
			name = string(arch.A64FX)
		}
		sys, err := arch.Get(arch.ID(name))
		if err != nil {
			return nil, err
		}
		iters := 10
		if opt.Quick {
			iters = 3
		}
		a := &Artifact{
			ID: "ext-machine", Title: fmt.Sprintf("Single-node probe suite on %s", name), Kind: Table,
			Columns: []string{"value"},
			Notes: []string{
				"reference values are the machine spec's declared anchors, not paper measurements",
			},
		}
		anchorTriad, anchorPeak, anchorLat := nan, nan, nan
		if m, ok := arch.MachineSpec(sys.ID); ok {
			anchorTriad = float64(m.Anchors.TriadBandwidth) / 1e9
			anchorPeak = float64(m.Anchors.PeakFlops) / 1e9
			anchorLat = m.Anchors.Latency.Seconds() * 1e6
		}
		row := func(label string, c Cell) {
			a.RowLabels = append(a.RowLabels, label)
			a.Cells = append(a.Cells, []Cell{c})
		}

		triad, err := micro.StreamTriad(sys, []int{sys.CoresPerNode()})
		if err != nil {
			return nil, err
		}
		row("STREAM triad GB/s (all cores)", val(float64(triad[0].Bandwidth)/1e9, anchorTriad, "%.1f"))

		peak, err := micro.PeakFlops(sys)
		if err != nil {
			return nil, err
		}
		row("peak-flops kernel GF/s", val(float64(peak)/1e9, anchorPeak, "%.1f"))

		pp, err := micro.PingPong(sys, []units.Bytes{8})
		if err != nil {
			return nil, err
		}
		row("ping-pong 8B latency µs", val(pp[0].HalfRoundTrip.Seconds()*1e6, anchorLat, "%.3f"))

		h, err := hpcg.Run(hpcg.Config{System: sys, Nodes: 1, Iterations: iters, Instrumentation: opt.Instrumentation})
		if err != nil {
			return nil, err
		}
		row("HPCG 1-node GFLOP/s", val(h.GFLOPs, nan, "%.2f"))

		nb, err := nekbone.Run(nekbone.Config{System: sys, Nodes: 1, Iterations: iters, Instrumentation: opt.Instrumentation})
		if err != nil {
			return nil, err
		}
		row("Nekbone 1-node GFLOP/s", val(nb.GFLOPs, nan, "%.2f"))

		nbf, err := nekbone.Run(nekbone.Config{System: sys, Nodes: 1, Iterations: iters, FastMath: true, Instrumentation: opt.Instrumentation})
		if err != nil {
			return nil, err
		}
		row("Nekbone 1-node GFLOP/s (fast math)", val(nbf.GFLOPs, nan, "%.2f"))
		return a, nil
	},
})
