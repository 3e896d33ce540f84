package simmpi

import (
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/telemetry"
)

// Instrumentation is the one declaration of a run's settings beyond the
// job's shape: where its events go, how its network and compute phases
// are priced, whether it is metered, and which span it reports under.
// JobConfig, core.Options and every benchmark Config embed it, so a
// setting flows from a CLI flag down to the runtime by assignment
// (job.Instrumentation = cfg.Instrumentation).
//
// Trace, Counters and Telemetry observe a run and never change its
// simulated results. Congestion and Model change virtual times and are
// therefore part of every artifact's identity (core.OptionsKey).
type Instrumentation struct {
	// Trace receives the job's event timeline (compute phases, sends,
	// receives, noise, region annotations). When nil — the default —
	// tracing is off and costs nothing. Events are streamed to the sink
	// after the job completes, merged across ranks in deterministic
	// (Start, Rank) order and bracketed by EvJobBegin/EvJobEnd markers;
	// the sink is NOT closed, so one sink can observe a sequence of jobs.
	Trace TraceSink
	// Congestion switches inter-node message pricing to the
	// contention-aware two-pass replay: the job first runs contention-
	// free with tracing off while recording every inter-node flow, the
	// congestion package solves per-flow dilations by max-min fair
	// sharing over the topology's routed links, and the job then re-runs
	// with each message's serialization term stretched by its flow's
	// dilation. Deterministic bodies see identical data in both passes,
	// so results stay bit-reproducible; only virtual times change.
	// Single-node jobs are never congested (shared memory is priced
	// separately), so their results are exactly those of the default.
	Congestion bool
	// Counters enables the virtual PMU: every rank accumulates the
	// metrics registry's counters (flops by class, cache-level traffic,
	// stall attribution, per-peer messages, collective time) and samples
	// them in virtual time at the configured period. The job report then
	// carries Report.Counters, and traced jobs additionally stream
	// EvCounter / EvCounterSample events. Nil — the default — disables
	// the PMU entirely; it costs nothing and changes no results either
	// way (phase times are evaluated through the same model terms).
	Counters *metrics.Config
	// Model selects the analytic model pricing compute phases: the
	// calibrated roofline (the empty default) or the ECM memory-
	// hierarchy model (perfmodel.ModelECM).
	Model perfmodel.Model
	// Telemetry, when non-nil, is the parent span the runtime hangs the
	// job's phase spans under: setup, the congestion record/solve
	// passes, the run pass, report assembly, and the job's virtual
	// makespan (a virtual-clock span). Nil — the default — records
	// nothing and costs nothing.
	Telemetry *telemetry.Span
}
