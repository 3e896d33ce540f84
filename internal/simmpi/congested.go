package simmpi

import (
	"fmt"

	"a64fxbench/internal/congestion"
	"a64fxbench/internal/telemetry"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// Congestion support: the runtime prices inter-node messages against
// link-level contention with a two-pass replay. Pass one runs the body
// contention-free (tracing off) and records every inter-node send that
// carries bytes, numbering each rank's sends in program order. The
// congestion package routes the flows over the fabric's topology and
// solves a max-min fair (waterfilling) fluid schedule in one pass,
// returning one dilation factor ≥ 1 per flow, positionally. Pass two
// re-runs the same body; rank r's k-th such send reads the dilation of
// the flow recorded as rank r's k-th and stretches its serialization
// term by it. Bodies are data-deterministic, so both passes issue the
// same sends; a send that differs from its recording in destination,
// tag or size, or that pass one never made, fails the job. Only traced
// jobs have the solver bucket per-link utilization series, which the
// link heatmap plots.

// seriesLinks is how many of the busiest links a traced congested job
// reports a utilization series for.
const seriesLinks = 16

// congestState selects the replay mode of one pass.
type congestState struct {
	// recording marks pass one: price contention-free, log flows.
	recording bool

	// Pass two: flows[off[r]+k] is rank r's k-th recorded send, and
	// sol.Dilations[off[r]+k] its dilation. off has one entry per rank
	// plus a final total.
	flows []congestion.Flow
	off   []int
	sol   *congestion.Solution
	// err is the first send that diverged from its recording.
	err error
}

// sentFlow is one inter-node send logged by the recording pass: what
// its congestion.Flow holds beyond the sending rank, its node and its
// send index. At half a Flow's size, it keeps the logs small while
// recordAndSolve copies them into the solver's input.
type sentFlow struct {
	dst, tag int
	start    vclock.Time
	bytes    units.Bytes
}

// congestedPrice prices an inter-node send of a congested run. While
// recording it logs the flow and prices it contention-free; on replay it
// checks the send against its recording and applies its dilation.
func (r *Rank) congestedPrice(cs *congestState, dst, tag, dstNode int, bytes units.Bytes) units.Duration {
	if cs.recording {
		r.flows = append(r.flows, sentFlow{dst: dst, tag: tag, start: r.clock.Now(), bytes: bytes})
		return r.job.net.price(r.node, dstNode, bytes)
	}
	k := r.replayed
	r.replayed++
	i := cs.off[r.id] + k
	if i >= cs.off[r.id+1] {
		cs.diverged(fmt.Errorf("simmpi: congestion replay diverged: rank %d send %d (%d B to rank %d, tag %d) is beyond the %d sends recorded",
			r.id, k, bytes, dst, tag, cs.off[r.id+1]-cs.off[r.id]))
		return r.job.net.price(r.node, dstNode, bytes)
	}
	if f := &cs.flows[i]; f.Key.Dst != dst || f.Key.Tag != tag || f.Bytes != bytes {
		cs.diverged(fmt.Errorf("simmpi: congestion replay diverged: rank %d send %d is %d B to rank %d, tag %d; recorded %d B to rank %d, tag %d",
			r.id, k, bytes, dst, tag, f.Bytes, f.Key.Dst, f.Key.Tag))
		return r.job.net.price(r.node, dstNode, bytes)
	}
	return r.job.net.dilated(r.node, dstNode, bytes, cs.sol.Dilations[i])
}

// diverged keeps the first replay divergence.
func (cs *congestState) diverged(err error) {
	if cs.err == nil {
		cs.err = err
	}
}

// replayErr reports why pass two did not replay pass one: the first
// diverging send, or else the first rank that made fewer sends than it
// recorded.
func (cs *congestState) replayErr(ranks []*Rank) error {
	if cs.err != nil {
		return cs.err
	}
	for _, r := range ranks {
		if want := cs.off[r.id+1] - cs.off[r.id]; r.replayed != want {
			return fmt.Errorf("simmpi: congestion replay diverged: rank %d send %d never happened (%d sends recorded)",
				r.id, r.replayed, want)
		}
	}
	return nil
}

// recordAndSolve runs the contention-free recording pass and solves the
// flow schedule over the fabric's routed links, returning pass two's
// replay state. jobSpan (nil-safe) receives one span per replay phase:
// the recording pass and the max-min fair solve.
func recordAndSolve(cfg JobConfig, body func(*Rank) error, jobSpan *telemetry.Span) (*congestState, error) {
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
	cs := &congestState{off: make([]int, len(ranks)+1)}
	for i, r := range ranks {
		cs.off[i+1] = cs.off[i] + len(r.flows)
	}
	cs.flows = make([]congestion.Flow, 0, cs.off[len(ranks)])
	for _, r := range ranks {
		for k, f := range r.flows {
			cs.flows = append(cs.flows, congestion.Flow{
				Key:     congestion.FlowKey{Src: r.id, Dst: f.dst, Tag: f.tag, Seq: k},
				SrcNode: r.node, DstNode: ranks[f.dst].node, Start: f.start, Bytes: f.bytes,
			})
		}
	}
	solveSpan := jobSpan.Child("replay-solve")
	defer solveSpan.End()
	f := cfg.Fabric
	solve := congestion.Config{
		Topo:              f.Topo,
		Capacity:          f.LinkCapacity,
		InjectionCapacity: f.InjectionBandwidth,
	}
	if cfg.Trace != nil {
		solve.SeriesLinks = seriesLinks
	}
	solveSpan.SetAttr("flows", len(cs.flows))
	cs.sol = congestion.Solve(solve, cs.flows)
	solveSpan.SetAttr("links", len(cs.sol.Links.Links))
	solveSpan.SetAttr("events", cs.sol.Events)
	solveSpan.SetAttr("series", solve.SeriesLinks > 0)
	return cs, nil
}
