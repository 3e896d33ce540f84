package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"a64fxbench/internal/obs"
	"a64fxbench/internal/serve"
	"a64fxbench/internal/simmpi"
)

// traceExperiment runs one experiment with tracing enabled and exports
// each simulated job: -format=text streams the classic timeline,
// -format=chrome streams a Perfetto-loadable trace-event file, and
// -format=json writes the full analysis report (communication matrix,
// roofline, critical path) per job. -o redirects to a file, which a
// failed text or chrome run leaves partial.
// The flags become a core.Request and run through the same executor the
// serve daemon's /v1/trace uses.
func traceExperiment(ctx context.Context, id string, cfg sweepConfig) error {
	req, err := cfg.request([]string{id})
	if err != nil {
		return err
	}
	if err := serve.CheckFormat("trace", req.Format); err != nil {
		return err
	}
	return withOutput(cfg, func(w io.Writer) error {
		return serve.WriteTrace(ctx, w, req)
	})
}

// jobDigests is the -profile digest of one experiment's simulated jobs,
// folded one job at a time: a line per job with its ranks, makespan,
// critical-path share and the dominant path phase.
type jobDigests struct {
	jobs  int
	lines bytes.Buffer
	err   error // the first job that failed to analyze
}

// add folds one finished job into the digest.
func (d *jobDigests) add(job *simmpi.Report) {
	d.jobs++
	if d.err != nil {
		return
	}
	rep, err := obs.Analyze(job, obs.A64FXPeaks(job))
	if err != nil {
		d.err = err
		return
	}
	cp := rep.CriticalPath
	top := "-"
	if len(cp.Phases) > 0 {
		top = fmt.Sprintf("%s %.0f%%", cp.Phases[0].Label, 100*cp.Phases[0].Fraction)
	}
	msgs, sent := rep.Comm.Totals()
	fmt.Fprintf(&d.lines, "  %-44s ranks=%-5d makespan=%10.4fs crit-path=%5.1f%% msgs=%-9d sent=%-10v top=%s\n",
		job.Label, rep.Ranks, rep.Makespan.Seconds(), 100*cp.Fraction, msgs, sent, top)
}

// write prints the digest of experiment id.
func (d *jobDigests) write(w io.Writer, id string) error {
	if _, err := fmt.Fprintf(w, "profile %s — %d simulated job(s)\n", id, d.jobs); err != nil {
		return err
	}
	if _, err := w.Write(d.lines.Bytes()); err != nil {
		return err
	}
	if d.err != nil {
		return d.err
	}
	_, err := fmt.Fprintln(w)
	return err
}
