package core

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
)

// hpcg-weak contrasts the contention-free network model against the
// routed congestion model on the same workload. Each row runs HPCG on
// A64FX nodes twice — Congestion off and on — so the artifact itself is
// independent of opt.Congestion and can be pinned by the golden gate
// while still exercising the contention path on every sweep.
var _ = registerExt(&Experiment{
	ID:    "hpcg-weak",
	Title: "HPCG weak scaling under contention-free vs congested network pricing",
	Kind:  Table,
	Description: "Runs 1–8 node HPCG on the A64FX/TofuD model with the " +
		"default contention-free fabric and again with routed per-link " +
		"max-min congestion, reporting the contention penalty at each " +
		"scale. Single-node rows are identical by construction.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 10
		nodeCounts := []int{1, 2, 4, 8}
		if opt.Quick {
			iters = 3
			nodeCounts = []int{1, 2, 4}
		}
		a := &Artifact{
			ID: "hpcg-weak", Title: "HPCG GFLOP/s: contention-free vs congested", Kind: Table,
			Columns: []string{"GFLOP/s", "GFLOP/s congested", "slowdown"},
			Notes: []string{
				"both columns are computed on every run (the artifact does not " +
					"depend on the -congestion flag); use `links hpcg-weak` for " +
					"the per-link heatmap of the congested pass",
			},
		}
		sys := arch.MustGet(arch.A64FX)
		congested := opt.Instrumentation
		congested.Congestion = true
		for _, nodes := range nodeCounts {
			free, err := hpcg.Run(hpcg.Config{
				System: sys, Nodes: nodes, Iterations: iters, Instrumentation: opt.Instrumentation,
			})
			if err != nil {
				return nil, err
			}
			// The congested pass feeds the same trace sink so `links`
			// and `trace` see its link report.
			cong, err := hpcg.Run(hpcg.Config{
				System: sys, Nodes: nodes, Iterations: iters,
				Instrumentation: congested,
			})
			if err != nil {
				return nil, err
			}
			a.RowLabels = append(a.RowLabels, fmt.Sprintf("%d nodes", nodes))
			a.Cells = append(a.Cells, []Cell{
				val(free.GFLOPs, nan, "%.2f"),
				val(cong.GFLOPs, nan, "%.2f"),
				val(free.GFLOPs/cong.GFLOPs, nan, "%.3f"),
			})
		}
		return a, nil
	},
})
