package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
)

// engineBenchNodes fixes the benchmark scenario so snapshots taken on
// different days are comparable: 86 nodes × 48 cores = 4128 ranks. The
// scenario itself is hpcg.ScaleConfig.
const engineBenchNodes = 86

// engineBenchSnapshot is the BENCH_engine.json schema. AllocsPerMsg —
// heap allocations per simulated message — is the only field the
// regression gate compares: it is a property of the code, not of the
// host. Wall time and ranks/sec track the host and are informational.
type engineBenchSnapshot struct {
	Scenario     string  `json:"scenario"`
	Ranks        int     `json:"ranks"`
	Msgs         int64   `json:"msgs"`
	WallMS       float64 `json:"wall_ms"`
	RanksPerSec  float64 `json:"ranks_per_sec"`
	AllocsPerMsg float64 `json:"allocs_per_msg"`
}

// engineBenchTol is the allowed fractional growth in allocs/msg versus
// the committed baseline before the gate fails.
const engineBenchTol = 0.15

// engineBenchReps is how many times the scenario runs; the fastest rep
// and the fewest allocations count. Minimum-of-N discards scheduler and
// GC interference, which otherwise dwarfs real regressions in a
// sub-second measurement.
const engineBenchReps = 3

// enginebenchCmd runs the weak-scaled HPCG scenario on a single core and
// reports simulated ranks/sec and allocations per simulated message.
// With a baseline snapshot argument it becomes the CI regression gate:
// allocs/msg must not exceed the baseline's by more than 15%. -o writes
// the new snapshot (the file CI uploads and, when re-baselining,
// commits).
func enginebenchCmd(cfg sweepConfig, args []string) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sys := arch.MustGet(arch.A64FX)
	snap := engineBenchSnapshot{
		Scenario: fmt.Sprintf("hpcg weak-scaled, %d nodes (%d ranks), a64fx, GOMAXPROCS=1",
			engineBenchNodes, engineBenchNodes*sys.CoresPerNode()),
	}
	var wall time.Duration
	var mallocs uint64
	for rep := 0; rep < engineBenchReps; rep++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := hpcg.Run(hpcg.ScaleConfig(sys, engineBenchNodes))
		if err != nil {
			return fmt.Errorf("enginebench: %w", err)
		}
		w := time.Since(start)
		runtime.ReadMemStats(&after)
		m := after.Mallocs - before.Mallocs
		if rep == 0 || w < wall {
			wall = w
		}
		if rep == 0 || m < mallocs {
			mallocs = m
		}
		snap.Ranks, snap.Msgs = res.Procs, res.Report.TotalMsgs
	}
	if snap.Msgs == 0 {
		return fmt.Errorf("enginebench: the scenario sent no messages")
	}
	snap.WallMS = math.Round(wall.Seconds()*1e5) / 100
	snap.RanksPerSec = math.Round(float64(snap.Ranks) / wall.Seconds())
	snap.AllocsPerMsg = math.Round(float64(mallocs)/float64(snap.Msgs)*1e4) / 1e4

	if err := withOutput(cfg, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "enginebench: %d ranks, %d msgs: %.1fms (%.0f ranks/s), %.4f allocs/msg\n",
		snap.Ranks, snap.Msgs, snap.WallMS, snap.RanksPerSec, snap.AllocsPerMsg)

	if len(args) == 0 {
		return nil
	}
	base, err := loadEngineBaseline(args[0])
	if err != nil {
		return err
	}
	if base.Scenario != snap.Scenario {
		return fmt.Errorf("enginebench: baseline scenario %q does not match %q; re-baseline with -o %s",
			base.Scenario, snap.Scenario, args[0])
	}
	ceiling := base.AllocsPerMsg * (1 + engineBenchTol)
	if snap.AllocsPerMsg > ceiling {
		return fmt.Errorf("enginebench: allocs/msg regressed to %.4f, baseline %.4f (ceiling %.4f)",
			snap.AllocsPerMsg, base.AllocsPerMsg, ceiling)
	}
	fmt.Fprintf(os.Stderr, "enginebench: within baseline (%.4f ≤ %.4f allocs/msg ceiling)\n", snap.AllocsPerMsg, ceiling)
	return nil
}

func loadEngineBaseline(path string) (engineBenchSnapshot, error) {
	var s engineBenchSnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("enginebench: reading baseline: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("enginebench: parsing baseline %s: %w", path, err)
	}
	if s.AllocsPerMsg <= 0 {
		return s, fmt.Errorf("enginebench: baseline %s has no allocs_per_msg field", path)
	}
	return s, nil
}
