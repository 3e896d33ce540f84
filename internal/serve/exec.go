// Package serve turns the experiment harness into a long-running
// sweep-as-a-service daemon: an HTTP/JSON API over the unified
// core.Request descriptor, backed by the concurrent sweep engine, the
// program's one cache — responses keyed by Request.Digest, bounded in
// bytes — in-flight deduplication (singleflight), bounded-queue
// backpressure and Prometheus-style self-instrumentation.
//
// The executors in this file are the single implementation of "do what
// a Request says and write the bytes": the CLI's run/trace/links/
// counters commands and the daemon's /v1/* handlers all call them, so a
// command line and a curl body produce byte-identical output for the
// same Request.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"a64fxbench/internal/core"
	"a64fxbench/internal/obs"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sweep"
)

// RunArtifacts executes the request's ids on a sweep engine with the
// given worker bound (≤ 0 means GOMAXPROCS) and returns the
// per-experiment results in input order, with the first failure as the
// error. The context cancels experiments that have not started
// (sweep.Engine semantics).
func RunArtifacts(ctx context.Context, req core.Request, workers int) ([]sweep.Result, error) {
	opt, err := req.Options()
	if err != nil {
		return nil, err
	}
	results := sweep.New(workers).Run(ctx, req.IDs, opt)
	return results, sweep.FirstError(results)
}

// WriteArtifacts renders every successful result of a run/sweep request
// to w in input order through the shared core.RenderArtifact path. The
// first failed result aborts with its error: the serving layer wants
// all-or-nothing responses (the CLI keeps its own partial-render loop).
func WriteArtifacts(w io.Writer, results []sweep.Result, req core.Request) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		if err := core.RenderArtifact(w, r.Artifact, req.Format, req.Compare); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrace runs the request's one experiment with tracing enabled and
// exports each simulated job as it finishes: format "text" streams the
// classic timeline, "chrome" a Perfetto-loadable trace-event file,
// "json" the full per-job analysis report (communication matrix,
// roofline, critical path), written once the run is done. A failed run
// returns its error; text and chrome output may then be partial.
func WriteTrace(ctx context.Context, w io.Writer, req core.Request) error {
	opt, err := req.Options()
	if err != nil {
		return err
	}
	// job folds one finished job; finish writes what is left.
	var (
		job    func(*simmpi.Report)
		finish func() error
	)
	switch req.Format {
	case "text", "":
		s := obs.NewTextSink(w)
		job, finish = s.Job, s.Close
	case "chrome":
		s := obs.NewChromeSink(w)
		job, finish = s.Job, s.Close
	case "json":
		reports := []*obs.Report{}
		var aerr error
		job = func(rep *simmpi.Report) {
			if aerr == nil {
				var r *obs.Report
				r, aerr = obs.Analyze(rep, obs.A64FXPeaks(rep))
				reports = append(reports, r)
			}
		}
		finish = func() error {
			if aerr != nil {
				return aerr
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(reports)
		}
	default:
		return fmt.Errorf("trace: unknown format %q (want text, chrome or json)", req.Format)
	}
	res := sweep.New(1).Observe(ctx, req.IDs[:1], opt, func(_ int, rep *simmpi.Report) { job(rep) })[0]
	if res.Err != nil {
		return res.Err
	}
	return finish()
}

// linkReport pairs one job's identity with its heatmap for JSON output.
type linkReport struct {
	Label string           `json:"label"`
	Ranks int              `json:"ranks"`
	Nodes int              `json:"nodes"`
	Links *obs.LinkHeatmap `json:"links"`
}

// WriteLinks runs the request's one experiment with congestion-aware
// network pricing forced on and renders the per-link contention heatmap
// of every simulated job: format "text" prints sparkline heatmaps,
// "json" the structured report. Experiments whose jobs are all
// single-node produce no contended links and say so.
func WriteLinks(ctx context.Context, w io.Writer, req core.Request) error {
	switch req.Format {
	case "text", "", "json":
	default:
		return fmt.Errorf("links: unknown format %q (want text or json)", req.Format)
	}
	opt, err := req.Options()
	if err != nil {
		return err
	}
	opt.Congestion = true
	reports := []linkReport{}
	res := sweep.New(1).Observe(ctx, req.IDs[:1], opt, func(_ int, job *simmpi.Report) {
		reports = append(reports, linkReport{
			Label: job.Label, Ranks: len(job.Ranks), Nodes: obs.NumNodes(job),
			Links: obs.BuildLinkHeatmap(job),
		})
	})[0]
	if res.Err != nil {
		return res.Err
	}
	if req.Format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	contended := 0
	for _, r := range reports {
		if r.Links == nil {
			continue
		}
		contended++
		if _, err := fmt.Fprintf(w, "=== %s: %d ranks on %d nodes ===\n",
			r.Label, r.Ranks, r.Nodes); err != nil {
			return err
		}
		if err := r.Links.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	if contended == 0 {
		_, err := fmt.Fprintf(w, "links %s: no contended links (%d simulated job(s), all single-node or untraced)\n",
			req.IDs[0], len(reports))
		return err
	}
	return nil
}

// WriteCounters runs the request's experiments with the virtual PMU
// enabled and exports the counters: format "json" writes the regression
// sentinel's canonical snapshot, "csv" the sampled counter series in
// long form, "text" per-job totals with derived rates and phase
// attribution. Every job is folded as it finishes. workers bounds the
// sweep's concurrency (≤ 0 means GOMAXPROCS).
func WriteCounters(ctx context.Context, w io.Writer, req core.Request, workers int) error {
	opt, err := req.Options()
	if err != nil {
		return err
	}
	opt.Counters = req.CounterConfig()
	eng := sweep.New(workers)
	switch req.Format {
	case "json":
		snap, _, err := sweep.CounterSnapshot(ctx, eng, req.IDs, opt)
		if err != nil {
			return err
		}
		return snap.WriteJSON(w)
	case "text", "":
		texts := make([]bytes.Buffer, len(req.IDs)) // per result
		results := eng.Observe(ctx, req.IDs, opt, func(i int, job *simmpi.Report) {
			if cr := obs.BuildCounterReport(job, obs.A64FXPeaks(job)); cr != nil {
				cr.Render(&texts[i])
				texts[i].WriteString("\n")
			}
		})
		if err := sweep.FirstError(results); err != nil {
			return err
		}
		for i := range results {
			if _, err := texts[i].WriteTo(w); err != nil {
				return err
			}
		}
		return nil
	case "csv":
		series := make([][]obs.CounterSeries, len(req.IDs)) // per result, per job
		results := eng.Observe(ctx, req.IDs, opt, func(i int, job *simmpi.Report) {
			series[i] = append(series[i], obs.CounterSeries{Label: job.Label, Changes: obs.CounterPoints(job.Counters)})
		})
		if err := sweep.FirstError(results); err != nil {
			return err
		}
		return obs.WriteCounterCSV(w, slices.Concat(series...))
	default:
		return fmt.Errorf("counters: unknown format %q (want text, json or csv)", req.Format)
	}
}
