package core

import (
	"fmt"
	"sort"
	"sync"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/nekbone"
	"a64fxbench/internal/opensbli"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// Extension experiments go beyond the paper: ablation studies on the
// design choices DESIGN.md calls out. They live in their own registry so
// the paper's 15 artifacts stay exactly the paper's 15. Unlike the paper
// registry (sealed at init), extensions may be registered at run time, so
// the map is lock-guarded.

var (
	extMu       sync.RWMutex
	extRegistry = map[string]*Experiment{}
)

func registerExt(e *Experiment) *Experiment {
	if err := RegisterExtension(e); err != nil {
		panic("core: " + err.Error())
	}
	return e
}

// RegisterExtension adds a custom ablation experiment to the extension
// registry. It is safe for concurrent use and fails on a duplicate or
// incomplete experiment.
func RegisterExtension(e *Experiment) error {
	if e == nil || e.ID == "" || e.Run == nil {
		return fmt.Errorf("core: extension needs an ID and a Run function")
	}
	extMu.Lock()
	defer extMu.Unlock()
	if _, dup := extRegistry[e.ID]; dup {
		return fmt.Errorf("core: duplicate extension %s", e.ID)
	}
	extRegistry[e.ID] = e
	return nil
}

// Extensions lists the ablation experiments, sorted by ID.
func Extensions() []*Experiment {
	extMu.RLock()
	defer extMu.RUnlock()
	var out []*Experiment
	for _, e := range extRegistry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// GetExtension looks an extension up by ID.
func GetExtension(id string) (*Experiment, error) {
	extMu.RLock()
	defer extMu.RUnlock()
	if e, ok := extRegistry[id]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("core: unknown extension %q", id)
}

// --- ext-network: interconnect swap ---

var _ = registerExt(&Experiment{
	ID:    "ext-network",
	Title: "Ablation: interconnect swap on multi-node HPCG",
	Kind:  Table,
	Description: "Runs 8-node HPCG on the A64FX node model under every " +
		"fabric in the study, isolating how much of the multi-node result " +
		"the TofuD network itself contributes.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 10
		if opt.Quick {
			iters = 3
		}
		a := &Artifact{
			ID: "ext-network", Title: "A64FX nodes under each fabric (8-node HPCG GFLOP/s)",
			Kind:    Table,
			Columns: []string{"GFLOP/s", "vs TofuD"},
			Notes: []string{
				"model prediction: HPCG's halo+allreduce pattern is latency-light, " +
					"so fabric choice moves the result by only a few percent at this scale",
			},
		}
		base := arch.MustGet(arch.A64FX)
		fabrics := []struct {
			name string
			from arch.ID
		}{
			{"TofuD", arch.A64FX},
			{"Aries", arch.ARCHER},
			{"FDR InfiniBand", arch.Cirrus},
			{"OmniPath", arch.NGIO},
			{"EDR InfiniBand", arch.Fulhame},
		}
		var ref float64
		for _, f := range fabrics {
			sysID := arch.ID("A64FX+" + f.name)
			donor := arch.MustGet(f.from)
			sys, err := arch.DeriveOrGet(arch.A64FX, sysID, func(s *arch.System) {
				s.NewFabric = donor.NewFabric
			}, nil)
			if err != nil {
				return nil, err
			}
			_ = base
			res, err := hpcg.Run(hpcg.Config{System: sys, Nodes: 8, Iterations: iters, Instrumentation: opt.Instrumentation})
			if err != nil {
				return nil, err
			}
			if f.name == "TofuD" {
				ref = res.GFLOPs
			}
			a.RowLabels = append(a.RowLabels, f.name)
			a.Cells = append(a.Cells, []Cell{
				val(res.GFLOPs, nan, "%.2f"),
				val(res.GFLOPs/ref, nan, "%.3f"),
			})
		}
		return a, nil
	},
})

// --- ext-noise: OS-noise sensitivity ---

var _ = registerExt(&Experiment{
	ID:    "ext-noise",
	Title: "Ablation: OS-noise sensitivity of weak-scaling efficiency",
	Kind:  Table,
	Description: "Sweeps the noise magnitude of the 16-node Nekbone run " +
		"to show how Table VII's parallel efficiencies depend on rare " +
		"per-rank delays amplified by bulk-synchronous collectives.",
	Run: func(opt Options) (*Artifact, error) {
		iters := 100
		if opt.Quick {
			iters = 40
		}
		a := &Artifact{
			ID: "ext-noise", Title: "Nekbone 16-node PE vs injected noise probability",
			Kind:    Table,
			Columns: []string{"16-node PE"},
			Notes: []string{
				"the calibrated production value is 1e-05 (Table VII)",
			},
		}
		sys := arch.MustGet(arch.A64FX)
		// Baseline (noise applies equally to the 1-node run).
		for _, prob := range []float64{0, 1e-6, 1e-5, 1e-4} {
			base, err := nekboneRunWithNoise(sys, 1, iters, prob, opt)
			if err != nil {
				return nil, err
			}
			scaled, err := nekboneRunWithNoise(sys, 16, iters, prob, opt)
			if err != nil {
				return nil, err
			}
			pe := base / scaled
			a.RowLabels = append(a.RowLabels, fmt.Sprintf("noise %.0e", prob))
			a.Cells = append(a.Cells, []Cell{val(pe, nan, "%.3f")})
		}
		return a, nil
	},
})

// nekboneRunWithNoise runs the metered Nekbone loop with an explicit
// noise probability, bypassing the benchmark's calibrated default.
func nekboneRunWithNoise(sys *arch.System, nodes, iters int, noise float64, opt Options) (float64, error) {
	// Reuse the public benchmark but override noise via a derived
	// system is not possible (noise lives in the job); replicate the
	// essential loop compactly instead.
	res, err := nekbone.RunWithNoise(nekbone.Config{
		System: sys, Nodes: nodes, Iterations: iters, FastMath: true,
		Instrumentation: opt.Instrumentation,
	}, noise, units.Duration(30*units.Millisecond))
	if err != nil {
		return 0, err
	}
	return res.Seconds, nil
}

// --- ext-stencil: what if the A64FX compiled OpenSBLI well? ---

var _ = registerExt(&Experiment{
	ID:    "ext-stencil",
	Title: "Ablation: OpenSBLI if the A64FX compiled generated stencils well",
	Kind:  Table,
	Description: "Raises the A64FX's StencilFD efficiency to the COSA " +
		"hand-written-kernel level to quantify how much of Table X's loss " +
		"is code generation rather than hardware.",
	Run: func(opt Options) (*Artifact, error) {
		tc := opensbli.PaperCase()
		if opt.Quick {
			tc.Steps = 50
		}
		a := &Artifact{
			ID: "ext-stencil", Title: "OpenSBLI 1-node runtime under stencil-efficiency scenarios",
			Kind:    Table,
			Columns: []string{"Runtime (s)", "vs measured A64FX"},
		}
		base := arch.MustGet(arch.A64FX)
		meas, err := opensbli.Run(opensbli.Config{System: base, Nodes: 1, Case: tc, Instrumentation: opt.Instrumentation})
		if err != nil {
			return nil, err
		}
		scale := 1.0
		if opt.Quick {
			scale = float64(opensbli.PaperCase().Steps) / float64(tc.Steps)
		}
		rows := []struct {
			label string
			eff   perfmodel.Efficiency
		}{
			{"A64FX as measured (generated code)", arch.Efficiencies(arch.A64FX)[perfmodel.StencilFD]},
			{"A64FX at COSA-kernel efficiency", arch.Efficiencies(arch.A64FX)[perfmodel.FluxFV]},
			{"NGIO as measured (for reference)", arch.Efficiencies(arch.NGIO)[perfmodel.StencilFD]},
		}
		for i, r := range rows {
			var sec float64
			switch i {
			case 0:
				sec = meas.Seconds
			case 1:
				sysID := arch.ID("A64FX-goodstencil")
				// Patched calibration copy, installed atomically with
				// the derived system so concurrent sweep workers never
				// observe it with the base StencilFD efficiency.
				eff := make(map[perfmodel.KernelClass]perfmodel.Efficiency)
				for k, v := range arch.Efficiencies(arch.A64FX) {
					eff[k] = v
				}
				eff[perfmodel.StencilFD] = r.eff
				sys, err := arch.DeriveOrGet(arch.A64FX, sysID, nil, eff)
				if err != nil {
					return nil, err
				}
				res, err := opensbli.Run(opensbli.Config{System: sys, Nodes: 1, Case: tc, Instrumentation: opt.Instrumentation})
				if err != nil {
					return nil, err
				}
				sec = res.Seconds
			case 2:
				res, err := opensbli.Run(opensbli.Config{System: arch.MustGet(arch.NGIO), Nodes: 1, Case: tc, Instrumentation: opt.Instrumentation})
				if err != nil {
					return nil, err
				}
				sec = res.Seconds
			}
			a.RowLabels = append(a.RowLabels, r.label)
			a.Cells = append(a.Cells, []Cell{
				val(sec*scale, nan, "%.2f"),
				val(sec/meas.Seconds, nan, "%.2f"),
			})
		}
		return a, nil
	},
})
