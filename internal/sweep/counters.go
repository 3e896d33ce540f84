package sweep

import (
	"context"
	"fmt"
	"strconv"

	"a64fxbench/internal/core"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/obs"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
)

// CounterSnapshot runs the given experiments with the virtual PMU
// enabled and flattens every counted job into one canonical metrics
// snapshot — the unit the regression sentinel diffs run against run.
//
// Each unique id runs once through Engine.Observe, which folds every
// job into its counter report as it finishes; each job contributes its
// makespan, counter totals, derived rates and phases under the key
// prefix "<id>/<job#> <label>". The snapshot is sorted and ready for
// WriteJSON; results are returned for error reporting (the error is
// FirstError over them).
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
	// The canonical model name ("" → "roofline") identifies which
	// pricing model produced the snapshot; `a64fxbench diff` switches
	// to the report-only roofline-vs-ECM delta table when two snapshots
	// disagree here.
	model := opt.Model
	if model == "" {
		model = perfmodel.ModelRoofline
	}
	reports := make([][]*obs.CounterReport, len(ids)) // per result, per job
	results := eng.Observe(ctx, ids, opt, func(i int, job *simmpi.Report) {
		reports[i] = append(reports[i], obs.BuildCounterReport(job, obs.A64FXPeaks(job)))
	})

	snap := metrics.NewSnapshot(map[string]string{
		"quick":      strconv.FormatBool(opt.Quick),
		"congestion": strconv.FormatBool(opt.Congestion),
		"period_ns":  strconv.FormatInt(int64(cfg.Period), 10),
		"model":      string(model),
	})
	for i, r := range results {
		for j, cr := range reports[i] {
			if cr != nil {
				obs.AppendCounterEntries(snap, fmt.Sprintf("%s/%03d %s", r.ID, j, cr.Label), cr)
			}
		}
	}
	snap.Sort()
	return snap, results, FirstError(results)
}
