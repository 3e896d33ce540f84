package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"a64fxbench/internal/core"
	"a64fxbench/internal/serve"
	"a64fxbench/internal/sweep"
)

// sweepConfig carries the CLI flags that shape a sweep.
type sweepConfig struct {
	quick    bool
	compare  bool
	format   string
	jobs     int // worker bound; ≤ 0 means GOMAXPROCS
	failFast bool
	// profile collects each experiment's event timeline and prints a
	// per-job observability summary after its artifact.
	profile bool
	// congestion prices multi-node communication through the routed
	// contention model (core.Options.Congestion).
	congestion bool
	// machine names the target machine for machine-parameterized ids
	// (core.Request.Machine); empty means the default (A64FX).
	machine string
	// model selects the compute-phase pricing model
	// (core.Request.Model); empty means the roofline default.
	model string
	// out is the exporting commands' output file ("" = stdout).
	out string
	// period is the counters command's virtual-time sampling period
	// (0 = the metrics default).
	period time.Duration
	// tol is the diff command's relative tolerance for Time and Rate
	// metrics.
	tol float64
	// addr is the serve command's listen address.
	addr string
	// queue is the serve command's queue depth before 429s.
	queue int
	// debugAddr, when non-empty, opens a second listener serving
	// net/http/pprof under /debug/pprof/ (serve command only). Off by
	// default: profiling endpoints are opt-in and never share the API
	// listener.
	debugAddr string
	// logLevel is the serve command's request-log threshold: debug,
	// info (default), warn, error, or off.
	logLevel string
	// logFormat is the serve command's request-log encoding: json
	// (default) or text.
	logFormat string
}

// request assembles the unified, serializable request descriptor from
// the flag set — the same core.Request the serve daemon decodes from
// JSON, so a command line and a curl body run through identical
// validation and execution paths.
func (c sweepConfig) request(ids []string) (core.Request, error) {
	return c.rawRequest(ids).Normalized()
}

// requestLenient skips the id-existence check: the sweep path wants
// unknown ids to fail per-experiment, not abort the whole run.
func (c sweepConfig) requestLenient(ids []string) (core.Request, error) {
	return c.rawRequest(ids).NormalizedLenient()
}

func (c sweepConfig) rawRequest(ids []string) core.Request {
	return core.Request{
		IDs: ids, Quick: c.quick, Congestion: c.congestion,
		Format: c.format, Compare: c.compare,
		PeriodNS: c.period.Nanoseconds(), Machine: c.machine,
		Model: c.model,
	}
}

// runSweep executes the requested experiments on the concurrent sweep
// engine and renders every artifact, in input order, to out. Failures do
// not abort the remaining experiments (unless failFast is set): completed
// artifacts are still rendered, a partial-results summary goes to errw,
// and a non-nil error makes the process exit non-zero.
func runSweep(ctx context.Context, out, errw io.Writer, ids []string, cfg sweepConfig) error {
	req, err := cfg.requestLenient(ids)
	if err != nil {
		return err
	}
	if err := serve.CheckFormat("sweep", req.Format); err != nil {
		return err
	}
	opt, err := req.Options()
	if err != nil {
		return err
	}
	eng := sweep.New(cfg.jobs)
	eng.FailFast = cfg.failFast
	var results []sweep.Result
	if cfg.profile {
		// Collect runs each distinct id once; map its results back onto
		// the requested ids so artifacts still render in input order.
		byID := map[string]sweep.Result{}
		for _, r := range eng.Collect(ctx, req.IDs, opt) {
			byID[r.ID] = r
		}
		for _, id := range req.IDs {
			results = append(results, byID[id])
		}
	} else {
		results = eng.Run(ctx, req.IDs, opt)
	}

	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if err := core.RenderArtifact(out, r.Artifact, req.Format, req.Compare); err != nil {
			return err
		}
		if cfg.profile && len(r.Timeline) > 0 {
			if err := writeProfileSummary(out, r.ID, r.Timeline); err != nil {
				return err
			}
		}
	}
	sum := sweep.Summarize(results)
	if len(results) > 1 {
		fmt.Fprintf(errw, "sweep: %s (%s of simulated-experiment compute)\n",
			sum, sum.Elapsed.Round(1e6))
		for _, r := range results {
			if r.Err == nil {
				fmt.Fprintf(errw, "  %-14s ok      %8s%s\n",
					r.ID, r.Elapsed.Round(1e6), cachedNote(r))
			}
		}
	}
	if sum.Failed+sum.Skipped > 0 {
		for _, r := range results {
			if r.Err == nil {
				continue
			}
			state := "failed"
			if r.Skipped() {
				state = "skipped"
			}
			fmt.Fprintf(errw, "  %-14s %-7s %v\n", r.ID, state, r.Err)
		}
		// FirstError skips cancellation errors; a sweep interrupted
		// before any experiment failed has none, so fall back to the
		// first skip cause (e.g. "context canceled" after Ctrl-C).
		cause := sweep.FirstError(results)
		if cause == nil {
			for _, r := range results {
				if r.Err != nil {
					cause = r.Err
					break
				}
			}
		}
		return fmt.Errorf("sweep incomplete (%s): %w", sum, cause)
	}
	return nil
}

// cachedNote marks cache hits in the timing listing.
func cachedNote(r sweep.Result) string {
	if r.Cached {
		return "  (cached)"
	}
	return ""
}
