// Package obs is the observability layer over the simmpi runtime: it
// folds each traced job's report (a simmpi.Report, as a
// simmpi.TraceSink receives it) into the analyses the paper's
// methodology rests on — Chrome/Perfetto trace files, rank×rank
// communication matrices, per-kernel-class roofline utilization,
// critical-path analysis over the send/recv happens-before DAG, link
// heatmaps and counter reports.
//
// The package is strictly a report consumer: it never touches the
// virtual clocks, so every analysis is observationally neutral to the
// simulation and byte-deterministic for a given job. Each function
// takes one job, so a caller can fold jobs as they finish and drop
// their events.
package obs

import "a64fxbench/internal/simmpi"

// NumNodes reports how many nodes the job's ranks occupy: ranks are
// placed in node blocks, so the last rank sits on the last node.
func NumNodes(job *simmpi.Report) int {
	if len(job.Ranks) == 0 {
		return 0
	}
	return job.Ranks[len(job.Ranks)-1].Node + 1
}
