package simmpi

import (
	"a64fxbench/internal/congestion"
	"a64fxbench/internal/telemetry"
	"a64fxbench/internal/units"
)

// Congestion support: the runtime prices inter-node messages against
// link-level contention with a two-pass replay. Pass one runs the body
// contention-free (tracing off) and records every inter-node flow with a
// deterministic key — (src rank, dst rank, tag, per-route sequence
// number), all derived from program order, never from goroutine
// scheduling. The congestion package routes the flows over the fabric's
// topology and solves a max-min fair (waterfilling) fluid schedule,
// yielding one dilation factor ≥ 1 per flow. Pass two re-runs the same
// body; each send looks up its flow's dilation by re-deriving the same
// key and stretches its serialization term accordingly. Because bodies
// are data-deterministic, both passes issue identical flow keys; a key
// the solution has never seen dilates by exactly 1.

// congestState selects the replay mode of one pass.
type congestState struct {
	// recording marks pass one: price contention-free, log flows.
	recording bool
	// sol holds pass two's solved dilations (nil while recording).
	sol *congestion.Solution
}

// flowRoute keys a rank's per-(destination, tag) send counters.
type flowRoute struct {
	dst, tag int
}

// nextFlowSeq returns this rank's program-order sequence number for the
// next send on (dst, tag). Both passes call it for every inter-node
// send, so the numbering is identical across passes.
func (r *Rank) nextFlowSeq(dst, tag int) int {
	if r.flowSeq == nil {
		r.flowSeq = make(map[flowRoute]int)
	}
	k := flowRoute{dst: dst, tag: tag}
	s := r.flowSeq[k]
	r.flowSeq[k] = s + 1
	return s
}

// recordAndSolve runs the contention-free recording pass and solves the
// flow schedule over the fabric's routed links. jobSpan (nil-safe)
// receives one span per replay phase: the recording pass and the
// max-min fair solve.
func recordAndSolve(cfg JobConfig, body func(*Rank) error, jobSpan *telemetry.Span) (*congestion.Solution, error) {
	recSpan := jobSpan.Child("replay-record")
	recCfg := cfg
	recCfg.Trace = nil    // the recording pass is never traced
	recCfg.Counters = nil // ... and never counted: only pass two's times are real
	ranks, err := runRanks(recCfg, body, &congestState{recording: true})
	recSpan.Fail(err)
	recSpan.End()
	if err != nil {
		return nil, err
	}
	var flows []congestion.Flow
	for _, r := range ranks {
		flows = append(flows, r.flows...)
	}
	solveSpan := jobSpan.Child("replay-solve")
	solveSpan.SetAttr("flows", len(flows))
	defer solveSpan.End()
	f := cfg.Fabric
	return congestion.Solve(congestion.Config{
		Topo:              f.Topo,
		Capacity:          f.LinkCapacity,
		InjectionCapacity: f.InjectionBandwidth,
	}, flows), nil
}

// emitLinkEvents streams a congestion report's per-link summaries (and
// utilization series, for the links that carry one) into a trace sink.
// Called between the job timeline and the EvJobEnd marker.
func emitLinkEvents(sink TraceSink, links *congestion.LinkReport) {
	if links == nil {
		return
	}
	for _, ls := range links.Links {
		sink.Record(Event{
			Kind: EvLink, Rank: -1, Node: -1, Peer: -1,
			Name: ls.Name, Start: links.Start,
			Duration: ls.Busy, Bytes: ls.Bytes,
			Flows: ls.Flows, PeakFlows: ls.PeakFlows, Value: ls.Util,
		})
		for b, u := range ls.Series {
			if u <= 0 {
				continue
			}
			sink.Record(Event{
				Kind: EvLinkSample, Rank: -1, Node: -1, Peer: -1,
				Name:  ls.Name,
				Start: links.Start.Add(units.Duration(b) * links.BucketWidth),
				// One bucket wide; Value is the bucket utilization.
				Duration: links.BucketWidth, Value: u,
			})
		}
	}
}
