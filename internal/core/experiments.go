package core

import (
	"fmt"
	"math"
	"strings"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/castep"
	"a64fxbench/internal/cosa"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/minikab"
	"a64fxbench/internal/nekbone"
	"a64fxbench/internal/opensbli"
	"a64fxbench/internal/paper"
)

// nan marks absent paper references.
var nan = math.NaN()

// val builds a measured cell with a paper reference.
func val(measured, paper float64, format string) Cell {
	return Cell{Value: measured, Paper: paper, Format: format}
}

// txt builds a text cell.
func txt(s string) Cell { return Cell{Text: s} }

// --- Table I: compute node specifications ---

var _ = register(&Experiment{
	ID:    "table1",
	Title: "Compute node specifications",
	Kind:  Table,
	Description: "The five systems' node hardware as modelled " +
		"(processor, clock, cores, vector width, peak, memory).",
	Run: func(Options) (*Artifact, error) {
		a := &Artifact{
			ID: "table1", Title: "Compute node specifications", Kind: Table,
			Columns: []string{"Processor", "Clock", "Cores/proc", "Cores/node",
				"Threads/core", "Vector", "Peak GF/s", "Mem/node", "Mem/core"},
		}
		// Exactly the paper's five systems — arch.All() would also list
		// ablation systems derived by extension experiments, making the
		// table depend on what else has already run.
		for _, id := range arch.IDs() {
			s := arch.MustGet(id)
			a.RowLabels = append(a.RowLabels, string(s.ID))
			a.Cells = append(a.Cells, []Cell{
				txt(s.Processor),
				txt(fmt.Sprintf("%.1fGHz", s.ClockGHz)),
				txt(fmt.Sprintf("%d", s.CoresPerProcessor)),
				txt(fmt.Sprintf("%d", s.CoresPerNode())),
				txt(s.ThreadsPerCore),
				txt(fmt.Sprintf("%dbit", s.VectorBits)),
				txt(fmt.Sprintf("%.1f", s.PeakNodeGFlops())),
				txt(s.MemoryPerNode().String()),
				txt(s.MemoryPerCore().String()),
			})
		}
		return a, nil
	},
})

// --- Table II: compilers, flags, libraries ---

var _ = register(&Experiment{
	ID:    "table2",
	Title: "Compilers, compiler flags and libraries",
	Kind:  Table,
	Description: "Table II metadata: the toolchain used for each " +
		"benchmark on each system (semantics carried by the calibration).",
	Run: func(Options) (*Artifact, error) {
		a := &Artifact{
			ID: "table2", Title: "Compilers, compiler flags and libraries", Kind: Table,
			Columns: []string{"System", "Compiler", "Fast math", "Libraries"},
		}
		for _, tc := range arch.Toolchains() {
			a.RowLabels = append(a.RowLabels, tc.Benchmark)
			fast := "no"
			if tc.HasFastMath() {
				fast = "yes"
			}
			a.Cells = append(a.Cells, []Cell{
				txt(string(tc.System)),
				txt(tc.Compiler),
				txt(fast),
				txt(strings.Join(tc.Libraries, ", ")),
			})
		}
		return a, nil
	},
})

// --- Table III: single-node HPCG ---

var _ = register(&Experiment{
	ID:    "table3",
	Title: "Single node HPCG performance",
	Kind:  Table,
	Description: "HPCG, MPI-only, all cores, local grid 80³; unoptimised " +
		"everywhere plus the vendor-optimised variants on EPCC NGIO and Fulhame.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 15
		if opt.Quick {
			iters = 4
		}
		a := &Artifact{
			ID: "table3", Title: "Single node HPCG performance", Kind: Table,
			Columns: []string{"GFLOP/s", "% of peak"},
			Notes: []string{
				"%-of-peak references are derived from the paper's own GFLOP/s and " +
					"Table I peaks; the published EPCC NGIO percentages (1.4/2.0) are " +
					"inconsistent with its GFLOP/s column (26.16/2662.4 ≈ 1.0%)",
			},
		}
		type row struct {
			label     string
			sys       arch.ID
			optimised bool
			paperGF   float64
			paperPct  float64
		}
		var rows []row
		for _, pr := range paper.TableIII {
			label := string(pr.System)
			if pr.System == paper.NGIO || pr.System == paper.Fulhame {
				if pr.Optimised {
					label += " (optimised)"
				} else {
					label += " (unoptimised)"
				}
			}
			sys := arch.ID(pr.System)
			rows = append(rows, row{
				label:     label,
				sys:       sys,
				optimised: pr.Optimised,
				paperGF:   pr.GFlops,
				paperPct:  pr.GFlops / arch.MustGet(sys).PeakNodeGFlops() * 100,
			})
		}
		for _, r := range rows {
			res, err := hpcg.Run(hpcg.Config{
				System: arch.MustGet(r.sys), Nodes: 1,
				Iterations: iters, Optimised: r.optimised,
				Instrumentation: opt.Instrumentation,
			})
			if err != nil {
				return nil, err
			}
			a.RowLabels = append(a.RowLabels, r.label)
			a.Cells = append(a.Cells, []Cell{
				val(res.GFLOPs, r.paperGF, "%.2f"),
				val(res.PctPeak, r.paperPct, "%.1f"),
			})
		}
		return a, nil
	},
})

// --- Table IV: multi-node HPCG ---

var _ = register(&Experiment{
	ID:    "table4",
	Title: "Multiple node HPCG performance (GFLOP/s)",
	Kind:  Table,
	Description: "HPCG scaling over 1, 2, 4 and 8 nodes; optimised " +
		"variants on NGIO and Fulhame as in the paper.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 10
		if opt.Quick {
			iters = 3
		}
		refs := map[arch.ID][4]float64{}
		for sys, cols := range paper.TableIV {
			refs[arch.ID(sys)] = cols
		}
		a := &Artifact{
			ID: "table4", Title: "Multiple node HPCG performance (GFLOP/s)", Kind: Table,
			Columns: []string{"1 node", "2 nodes", "4 nodes", "8 nodes"},
			Notes: []string{
				"EPCC NGIO and Fulhame rows use the vendor-optimised HPCG, as in the paper",
			},
		}
		for _, id := range arch.IDs() {
			optimised := id == arch.NGIO || id == arch.Fulhame
			label := string(id)
			if optimised {
				label += " (optimised)"
			}
			var cells []Cell
			for i, nodes := range []int{1, 2, 4, 8} {
				res, err := hpcg.Run(hpcg.Config{
					System: arch.MustGet(id), Nodes: nodes,
					Iterations: iters, Optimised: optimised,
					Instrumentation: opt.Instrumentation,
				})
				if err != nil {
					return nil, err
				}
				cells = append(cells, val(res.GFLOPs, refs[id][i], "%.2f"))
			}
			a.RowLabels = append(a.RowLabels, label)
			a.Cells = append(a.Cells, cells)
		}
		return a, nil
	},
})

// --- Table V: single-core minikab ---

var _ = register(&Experiment{
	ID:    "table5",
	Title: "Single core minikab performance (runtime in seconds)",
	Kind:  Table,
	Description: "The Benchmark1 structural CG solve (9,573,984 dof, " +
		"696,096,138 nnz) on one core of A64FX, EPCC NGIO and Fulhame.",
	Run: func(opt Options) (*Artifact, error) {
		refs := map[arch.ID]float64{}
		for sys, v := range paper.TableV {
			refs[arch.ID(sys)] = v
		}
		a := &Artifact{
			ID: "table5", Title: "Single core minikab performance", Kind: Table,
			Columns: []string{"Runtime (s)"},
		}
		iters := 0 // default (full)
		if opt.Quick {
			iters = minikab.DefaultIterations / 10
		}
		for _, id := range []arch.ID{arch.A64FX, arch.NGIO, arch.Fulhame} {
			res, err := minikab.Run(minikab.Config{
				System: arch.MustGet(id), Nodes: 1, RanksPerNode: 1,
				Iterations: iters, Instrumentation: opt.Instrumentation,
			})
			if err != nil {
				return nil, err
			}
			seconds := res.Seconds
			ref := refs[id]
			if opt.Quick {
				seconds *= 10 // scale back for comparability
			}
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, []Cell{val(seconds, ref, "%.0f")})
		}
		return a, nil
	},
})

// --- Figure 1: minikab execution configurations on 2 A64FX nodes ---

var _ = register(&Experiment{
	ID:    "fig1",
	Title: "minikab runtimes/GFLOP/s for execution setups on 2 A64FX nodes",
	Kind:  Figure,
	Description: "Plain MPI and mixed MPI+OpenMP configurations over " +
		"increasing core counts; plain MPI cannot exceed 48 processes for " +
		"memory reasons, and 4 ranks × 12 threads per node (one rank per " +
		"CMG) is fastest.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 200
		if opt.Quick {
			iters = 40
		}
		a := &Artifact{
			ID: "fig1", Title: "minikab execution setups on 2 A64FX nodes", Kind: Figure,
			Columns: []string{"Cores/node", "Runtime (s)", "GFLOP/s"},
			Notes: []string{
				"paper reports no numeric values for this figure; the qualitative " +
					"shape (memory-limited plain MPI, hybrid best at full population) is the target",
				"96-rank plain MPI omitted: does not fit node memory, as in the paper",
			},
		}
		type cfg struct {
			label    string
			rpn, tpr int
		}
		cfgs := []cfg{
			{"MPI only, 24 ranks/node", 24, 1},
			{"24 ranks × 2 threads", 24, 2},
			{"16 ranks × 3 threads", 16, 3},
			{"8 ranks × 6 threads", 8, 6},
			{"4 ranks × 12 threads", 4, 12},
		}
		for _, c := range cfgs {
			res, err := minikab.Run(minikab.Config{
				System: arch.MustGet(arch.A64FX), Nodes: 2,
				RanksPerNode: c.rpn, ThreadsPerRank: c.tpr, Iterations: iters,
				Instrumentation: opt.Instrumentation,
			})
			if err != nil {
				return nil, err
			}
			a.RowLabels = append(a.RowLabels, c.label)
			a.Cells = append(a.Cells, []Cell{
				txt(fmt.Sprintf("%d", c.rpn*c.tpr)),
				val(res.Seconds, nan, "%.2f"),
				val(res.GFLOPs, nan, "%.1f"),
			})
		}
		return a, nil
	},
})

// --- Figure 2: minikab strong scaling, A64FX vs Fulhame ---

var _ = register(&Experiment{
	ID:    "fig2",
	Title: "minikab strong scaling on A64FX (2–8 nodes) vs Fulhame (1–6 nodes)",
	Kind:  Figure,
	Description: "Best configurations per system: 4×12 hybrid on A64FX, " +
		"fully-populated plain MPI on Fulhame.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 200
		if opt.Quick {
			iters = 40
		}
		a := &Artifact{
			ID: "fig2", Title: "minikab strong scaling (Benchmark1)", Kind: Figure,
			Columns: []string{"Cores", "Runtime (s)"},
			Notes: []string{
				"paper reports no numeric values; targets are the qualitative " +
					"claims of §VI.A (A64FX faster per node and per core, Fulhame scales at least as well)",
			},
		}
		for _, nodes := range []int{2, 4, 6, 8} {
			cfg := minikab.BestA64FXConfig(nodes)
			cfg.Iterations = iters
			cfg.Instrumentation = opt.Instrumentation
			res, err := minikab.Run(cfg)
			if err != nil {
				return nil, err
			}
			a.RowLabels = append(a.RowLabels, fmt.Sprintf("A64FX %d nodes", nodes))
			a.Cells = append(a.Cells, []Cell{
				txt(fmt.Sprintf("%d", res.Cores)),
				val(res.Seconds, nan, "%.2f"),
			})
		}
		for _, nodes := range []int{1, 2, 3, 4, 5, 6} {
			cfg := minikab.FulhameConfig(nodes)
			cfg.Iterations = iters
			cfg.Instrumentation = opt.Instrumentation
			res, err := minikab.Run(cfg)
			if err != nil {
				return nil, err
			}
			a.RowLabels = append(a.RowLabels, fmt.Sprintf("Fulhame %d nodes", nodes))
			a.Cells = append(a.Cells, []Cell{
				txt(fmt.Sprintf("%d", res.Cores)),
				val(res.Seconds, nan, "%.2f"),
			})
		}
		return a, nil
	},
})

// --- Table VI: Nekbone node performance ---

var _ = register(&Experiment{
	ID:    "table6",
	Title: "Node performance of Nekbone across numerous systems",
	Kind:  Table,
	Description: "Weak scaling, 200 elements per rank at 16³ order; " +
		"GFLOP/s with and without fast math (-Kfast / -ffast-math).",
	Run: func(opt Options) (*Artifact, error) {
		iters := 40
		if opt.Quick {
			iters = 10
		}
		refs := map[arch.ID][2]float64{}
		for sys, row := range paper.TableVI {
			refs[arch.ID(sys)] = [2]float64{row.GFlops, row.GFlopsFastMath}
		}
		a := &Artifact{
			ID: "table6", Title: "Nekbone node performance", Kind: Table,
			Columns: []string{"Cores", "GFLOP/s", "Ratio to A64FX", "GFLOP/s fast math", "Ratio to A64FX"},
		}
		ids := []arch.ID{arch.A64FX, arch.NGIO, arch.Fulhame, arch.ARCHER}
		type pair struct{ plain, fast float64 }
		meas := map[arch.ID]pair{}
		for _, id := range ids {
			p, err := nekbone.Run(nekbone.Config{System: arch.MustGet(id), Nodes: 1, Iterations: iters, Instrumentation: opt.Instrumentation})
			if err != nil {
				return nil, err
			}
			f, err := nekbone.Run(nekbone.Config{System: arch.MustGet(id), Nodes: 1, Iterations: iters, FastMath: true, Instrumentation: opt.Instrumentation})
			if err != nil {
				return nil, err
			}
			meas[id] = pair{p.GFLOPs, f.GFLOPs}
		}
		base := meas[arch.A64FX]
		paperBase := refs[arch.A64FX]
		for _, id := range ids {
			m := meas[id]
			pp := refs[id]
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, []Cell{
				txt(fmt.Sprintf("%d", arch.MustGet(id).CoresPerNode())),
				val(m.plain, pp[0], "%.2f"),
				val(m.plain/base.plain, pp[0]/paperBase[0], "%.2f"),
				val(m.fast, pp[1], "%.2f"),
				val(m.fast/base.fast, pp[1]/paperBase[1], "%.2f"),
			})
		}
		return a, nil
	},
})

// --- Figure 3: Nekbone single-node core scaling ---

var _ = register(&Experiment{
	ID:    "fig3",
	Title: "Nekbone single node scaling across cores (one MPI process per core)",
	Kind:  Figure,
	Description: "Weak scaling over core counts on one node of each " +
		"system; the Arm processors hold per-core rates to high counts " +
		"while the Intel parts tail off.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 10
		if opt.Quick {
			iters = 3
		}
		counts := []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64}
		a := &Artifact{
			ID: "fig3", Title: "Nekbone single-node core scaling (GFLOP/s)", Kind: Figure,
			Columns: []string{},
			Notes: []string{
				"paper's figure is MFLOP/s in log scale with no numeric labels; " +
					"shapes (Arm scaling, Ivy Bridge early competitiveness) are the target",
			},
		}
		for _, c := range counts {
			a.Columns = append(a.Columns, fmt.Sprintf("%d", c))
		}
		for _, id := range arch.IDs() {
			sys := arch.MustGet(id)
			var cells []Cell
			for _, c := range counts {
				if c > sys.CoresPerNode() {
					cells = append(cells, val(nan, nan, "%.1f"))
					continue
				}
				res, err := nekbone.Run(nekbone.Config{
					System: sys, Nodes: 1, CoresPerNode: c, Iterations: iters,
					Instrumentation: opt.Instrumentation,
				})
				if err != nil {
					return nil, err
				}
				cells = append(cells, val(res.GFLOPs, nan, "%.1f"))
			}
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, cells)
		}
		return a, nil
	},
})

// --- Table VII: Nekbone inter-node parallel efficiency ---

var _ = register(&Experiment{
	ID:    "table7",
	Title: "Inter-node parallel efficiency across machines",
	Kind:  Table,
	Description: "Nekbone weak scaling to 16 nodes on A64FX (TofuD), " +
		"Fulhame (EDR IB) and ARCHER (Aries); PE = speedup/nodes.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 100
		if opt.Quick {
			iters = 30
		}
		refs := map[arch.ID][4]float64{}
		for sys, pes := range paper.TableVII {
			refs[arch.ID(sys)] = pes
		}
		a := &Artifact{
			ID: "table7", Title: "Nekbone inter-node parallel efficiency", Kind: Table,
			Columns: []string{"2 nodes", "4 nodes", "8 nodes", "16 nodes"},
		}
		for _, id := range []arch.ID{arch.A64FX, arch.Fulhame, arch.ARCHER} {
			sys := arch.MustGet(id)
			base, err := nekbone.Run(nekbone.Config{System: sys, Nodes: 1, Iterations: iters, FastMath: true, Instrumentation: opt.Instrumentation})
			if err != nil {
				return nil, err
			}
			var cells []Cell
			for i, nodes := range []int{2, 4, 8, 16} {
				res, err := nekbone.Run(nekbone.Config{System: sys, Nodes: nodes, Iterations: iters, FastMath: true, Instrumentation: opt.Instrumentation})
				if err != nil {
					return nil, err
				}
				pe := nekbone.ParallelEfficiency(base, res, nodes)
				cells = append(cells, val(pe, refs[id][i], "%.2f"))
			}
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, cells)
		}
		return a, nil
	},
})

// --- Table VIII: COSA processes per node ---

var _ = register(&Experiment{
	ID:          "table8",
	Title:       "COSA: processes per node for each system benchmarked",
	Kind:        Table,
	Description: "One MPI process per core, all cores used.",
	Run: func(Options) (*Artifact, error) {
		refs := map[arch.ID]int{}
		for sys, v := range paper.TableVIII {
			refs[arch.ID(sys)] = v
		}
		got := cosa.ProcessesPerNode()
		a := &Artifact{
			ID: "table8", Title: "COSA processes per node", Kind: Table,
			Columns: []string{"Processes per node"},
		}
		for _, id := range arch.IDs() {
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, []Cell{
				val(float64(got[id]), float64(refs[id]), "%.0f"),
			})
		}
		return a, nil
	},
})

// --- Figure 4: COSA strong scaling ---

var _ = register(&Experiment{
	ID:    "fig4",
	Title: "COSA performance across a range of node counts (strong scaling)",
	Kind:  Figure,
	Description: "The 800-block, 4-harmonic, 3.69M-cell HB case over " +
		"1–16 nodes; A64FX needs ≥2 nodes and leads until Fulhame " +
		"overtakes at 16 via block-distribution load balance.",
	Run: func(opt Options) (*Artifact, error) {
		tc := cosa.PaperTestCase()
		if opt.Quick {
			tc.Iterations = 25
		}
		nodeCounts := []int{1, 2, 4, 8, 16}
		a := &Artifact{
			ID: "fig4", Title: "COSA strong scaling runtime (s)", Kind: Figure,
			Columns: []string{"1", "2", "4", "8", "16"},
			Notes: []string{
				"paper's figure carries no numeric labels; targets are its stated " +
					"shape: A64FX from 2 nodes, fastest until overtaken by Fulhame at 16",
				"A64FX 1-node cell empty: the 60 GB case does not fit a 32 GB node",
			},
		}
		for _, id := range arch.IDs() {
			var cells []Cell
			for _, nodes := range nodeCounts {
				res, err := cosa.Run(cosa.Config{System: arch.MustGet(id), Nodes: nodes, Case: tc, Instrumentation: opt.Instrumentation})
				if err != nil {
					cells = append(cells, txt("(OOM)"))
					continue
				}
				cells = append(cells, val(res.Seconds, nan, "%.2f"))
			}
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, cells)
		}
		return a, nil
	},
})

// --- Table IX: CASTEP TiN best single-node performance ---

var _ = register(&Experiment{
	ID:    "table9",
	Title: "CASTEP TiN benchmark: best single node performance comparison",
	Kind:  Table,
	Description: "SCF cycles per second at the best core count per node " +
		"(core counts must be factors or multiples of 8).",
	Run: func(opt Options) (*Artifact, error) {
		cycles := 5
		if opt.Quick {
			cycles = 2
		}
		refs := map[arch.ID]paper.TableIXRow{}
		for sys, row := range paper.TableIX {
			refs[arch.ID(sys)] = row
		}
		a := &Artifact{
			ID: "table9", Title: "CASTEP TiN best single-node performance", Kind: Table,
			Columns: []string{"Cores used", "Perf (SCF cycles/s)", "Ratio to A64FX"},
		}
		meas := map[arch.ID]castep.Result{}
		for _, id := range arch.IDs() {
			res, err := castep.Run(castep.Config{System: arch.MustGet(id), Cycles: cycles, Instrumentation: opt.Instrumentation})
			if err != nil {
				return nil, err
			}
			meas[id] = res
		}
		base := meas[arch.A64FX].SCFCyclesPerSecond
		for _, id := range []arch.ID{arch.A64FX, arch.ARCHER, arch.NGIO, arch.Cirrus, arch.Fulhame} {
			m := meas[id]
			p := refs[id]
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, []Cell{
				val(float64(m.Cores), float64(p.Cores), "%.0f"),
				val(m.SCFCyclesPerSecond, p.SCFCyclesPerSec, "%.3f"),
				val(m.SCFCyclesPerSecond/base, p.RatioToA64FX, "%.2f"),
			})
		}
		return a, nil
	},
})

// --- Figure 5: CASTEP single-node core scaling ---

var _ = register(&Experiment{
	ID:    "fig5",
	Title: "Single node CASTEP TiN benchmark performance vs core count",
	Kind:  Figure,
	Description: "SCF cycles/s over the TiN-legal core counts on each " +
		"system (MPI only, the best configuration everywhere).",
	Run: func(opt Options) (*Artifact, error) {
		cycles := 3
		if opt.Quick {
			cycles = 1
		}
		counts := []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64}
		a := &Artifact{
			ID: "fig5", Title: "CASTEP TiN single-node core scaling (SCF cycles/s)", Kind: Figure,
			Notes: []string{
				"paper's figure carries no numeric labels; Table IX pins the full-node points",
			},
		}
		for _, c := range counts {
			a.Columns = append(a.Columns, fmt.Sprintf("%d", c))
		}
		for _, id := range arch.IDs() {
			sys := arch.MustGet(id)
			legal := map[int]bool{}
			for _, c := range castep.LegalCores(sys) {
				legal[c] = true
			}
			var cells []Cell
			for _, c := range counts {
				if !legal[c] {
					cells = append(cells, val(nan, nan, "%.3f"))
					continue
				}
				res, err := castep.Run(castep.Config{System: sys, Cores: c, Cycles: cycles, Instrumentation: opt.Instrumentation})
				if err != nil {
					return nil, err
				}
				cells = append(cells, val(res.SCFCyclesPerSecond, nan, "%.3f"))
			}
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, cells)
		}
		return a, nil
	},
})

// --- Table X: OpenSBLI runtimes ---

var _ = register(&Experiment{
	ID:    "table10",
	Title: "OpenSBLI performance (total runtime in seconds)",
	Kind:  Table,
	Description: "Taylor-Green vortex, 64³ grid, pure MPI, fully " +
		"populated nodes, 1–8 nodes.",
	Run: func(opt Options) (*Artifact, error) {
		tc := opensbli.PaperCase()
		if opt.Quick {
			tc.Steps = 50
		}
		refs := map[arch.ID][4]float64{}
		for sys, cols := range paper.TableX {
			refs[arch.ID(sys)] = cols
		}
		a := &Artifact{
			ID: "table10", Title: "OpenSBLI total runtime (s)", Kind: Table,
			Columns: []string{"1 node", "2 nodes", "4 nodes", "8 nodes"},
			Notes: []string{
				"multi-node cells are model predictions; the simulated network is " +
					"cleaner than the real fabrics for this latency-bound 64³ case, " +
					"so the model scales somewhat better than the paper's measurements",
			},
		}
		scale := 1.0
		if opt.Quick {
			scale = float64(opensbli.PaperCase().Steps) / float64(tc.Steps)
		}
		for _, id := range []arch.ID{arch.A64FX, arch.Cirrus, arch.NGIO, arch.Fulhame} {
			var cells []Cell
			for i, nodes := range []int{1, 2, 4, 8} {
				res, err := opensbli.Run(opensbli.Config{System: arch.MustGet(id), Nodes: nodes, Case: tc, Instrumentation: opt.Instrumentation})
				if err != nil {
					return nil, err
				}
				cells = append(cells, val(res.Seconds*scale, refs[id][i], "%.2f"))
			}
			a.RowLabels = append(a.RowLabels, string(id))
			a.Cells = append(a.Cells, cells)
		}
		return a, nil
	},
})
