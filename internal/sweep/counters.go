package sweep

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"a64fxbench/internal/core"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/obs"
)

// CounterSnapshot runs the given experiments with the virtual PMU
// enabled and flattens every counted job into one canonical metrics
// snapshot — the unit the regression sentinel diffs run against run.
//
// Each unique id runs once through Engine.Collect; every job an
// experiment simulates contributes its makespan, counter totals, and
// derived rates under the key prefix "<id>/<job#> <label>". The
// snapshot is sorted and ready for WriteJSON; results are returned for
// error reporting (the error is FirstError over them).
//
// Counters never change artifact contents, and the simulation is
// deterministic in virtual time, so the snapshot is byte-identical
// across worker counts and goroutine schedules.
func CounterSnapshot(ctx context.Context, eng *Engine, ids []string, opt core.Options) (*metrics.Snapshot, []Result, error) {
	if opt.Counters == nil {
		opt.Counters = &metrics.Config{}
	}
	cfg := opt.Counters.Sanitized()
	opt.Counters = &cfg
	results := eng.Collect(ctx, ids, opt)

	snap := metrics.NewSnapshot(map[string]string{
		"quick":      strconv.FormatBool(opt.Quick),
		"congestion": strconv.FormatBool(opt.Congestion),
		"period_ns":  strconv.FormatInt(int64(cfg.Period), 10),
		// The canonical model name ("" → "roofline") identifies which
		// pricing model produced the snapshot; `a64fxbench diff` switches
		// to the report-only roofline-vs-ECM delta table when two
		// snapshots disagree here.
		"model": string(opt.ArtifactKey().Model),
	})
	byID := slices.Clone(results)
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID < byID[j].ID })
	for _, r := range byID {
		for j, jt := range obs.SplitJobs(r.Timeline) {
			cr := obs.BuildCounterReport(jt, obs.A64FXPeaks(jt))
			if cr == nil {
				continue
			}
			prefix := fmt.Sprintf("%s/%03d %s", r.ID, j, jt.Label)
			obs.AppendCounterEntries(snap, prefix, cr)
		}
	}
	snap.Sort()
	return snap, results, FirstError(results)
}
