// Package serve turns the experiment harness into a long-running
// sweep-as-a-service daemon: an HTTP/JSON API over the unified
// core.Request descriptor, backed by the concurrent sweep engine, a
// content-addressed response cache keyed by Request.Digest, in-flight
// deduplication (singleflight), bounded-queue backpressure and
// Prometheus-style self-instrumentation.
//
// The executors in this file are the single implementation of "do what
// a Request says and write the bytes": the CLI's run/trace/links/
// counters commands and the daemon's /v1/* handlers all call them, so a
// command line and a curl body produce byte-identical output for the
// same Request.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"a64fxbench/internal/core"
	"a64fxbench/internal/obs"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sweep"
)

// RunArtifacts executes the request's ids on the given sweep engine and
// returns the per-experiment results in input order. The context
// cancels experiments that have not started (sweep.Engine semantics).
func RunArtifacts(ctx context.Context, eng *sweep.Engine, req core.Request) ([]sweep.Result, error) {
	opt, err := req.Options()
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx, req.IDs, opt), nil
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

// WriteRun executes a single-id run request end to end and writes the
// rendered artifact bytes to w.
func WriteRun(ctx context.Context, w io.Writer, eng *sweep.Engine, req core.Request) error {
	results, err := RunArtifacts(ctx, eng, req)
	if err != nil {
		return err
	}
	return WriteArtifacts(w, results, req)
}

// WriteTrace runs the request's one experiment with tracing enabled and
// exports the event stream: format "text" streams the classic timeline,
// "chrome" writes a Perfetto-loadable trace-event file, "json" the full
// per-job analysis report (communication matrix, roofline, critical
// path).
func WriteTrace(ctx context.Context, w io.Writer, req core.Request) error {
	opt, err := req.Options()
	if err != nil {
		return err
	}
	eng := sweep.New(1)
	switch req.Format {
	case "text", "":
		// Streams each job as it completes; nothing is buffered.
		sink := obs.NewTextSink(w)
		eng.SinkFor = func(string) simmpi.TraceSink { return sink }
		if res := eng.Run(ctx, req.IDs[:1], opt)[0]; res.Err != nil {
			return res.Err
		}
		return sink.Close()
	case "chrome", "json":
	default:
		return fmt.Errorf("trace: unknown format %q (want text, chrome or json)", req.Format)
	}
	res := eng.Collect(ctx, req.IDs[:1], opt)[0]
	if res.Err != nil {
		return res.Err
	}
	jobs := obs.SplitJobs(res.Timeline)
	if req.Format == "chrome" {
		return obs.WriteChrome(w, jobs)
	}
	reports := make([]*obs.Report, 0, len(jobs))
	for _, jt := range jobs {
		rep, err := obs.Analyze(jt, obs.A64FXPeaks(jt))
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
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
	res := sweep.New(1).Collect(ctx, req.IDs[:1], opt)[0]
	if res.Err != nil {
		return res.Err
	}
	jobs := obs.SplitJobs(res.Timeline)
	if req.Format == "json" {
		reports := make([]linkReport, 0, len(jobs))
		for _, jt := range jobs {
			reports = append(reports, linkReport{
				Label: jt.Label, Ranks: jt.NumRanks(), Nodes: jt.NumNodes(),
				Links: obs.BuildLinkHeatmap(jt),
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	contended := 0
	for _, jt := range jobs {
		hm := obs.BuildLinkHeatmap(jt)
		if hm == nil {
			continue
		}
		contended++
		if _, err := fmt.Fprintf(w, "=== %s: %d ranks on %d nodes ===\n",
			jt.Label, jt.NumRanks(), jt.NumNodes()); err != nil {
			return err
		}
		if err := hm.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	if contended == 0 {
		_, err := fmt.Fprintf(w, "links %s: no contended links (%d simulated job(s), all single-node or untraced)\n",
			req.IDs[0], len(jobs))
		return err
	}
	return nil
}

// WriteCounters runs the request's experiments with the virtual PMU
// enabled and exports the counters: format "json" writes the regression
// sentinel's canonical snapshot, "csv" the sampled counter series in
// long form, "text" per-job totals with derived rates and phase
// attribution. workers bounds the sweep's concurrency (≤ 0 means
// GOMAXPROCS).
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
	case "text", "", "csv":
		results := eng.Collect(ctx, req.IDs, opt)
		if err := sweep.FirstError(results); err != nil {
			return err
		}
		var jobs []obs.JobTrace
		for _, r := range results {
			jobs = append(jobs, obs.SplitJobs(r.Timeline)...)
		}
		if req.Format == "csv" {
			return obs.WriteCounterCSV(w, jobs)
		}
		for _, jt := range jobs {
			cr := obs.BuildCounterReport(jt, obs.A64FXPeaks(jt))
			if cr == nil {
				continue
			}
			if err := cr.Render(w); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("counters: unknown format %q (want text, json or csv)", req.Format)
	}
}
