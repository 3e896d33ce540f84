package simmpi

import (
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/vclock"
)

// emitCounterEvents streams a counted job's PMU accounting into its
// trace sink, between the merged timeline and the EvJobEnd marker
// (mirroring emitLinkEvents):
//
//   - one EvCounter per (rank, nonzero counter) with the final
//     cumulative value, in rank-major then counter-ID order;
//   - one EvCounterSample per changed counter of each point of the
//     job-aggregate series (metrics.JobCounters.AggregateSeries), in
//     time-major then counter-ID order.
//
// Both orders are pure functions of the per-rank accounting, which is
// itself driven by virtual clocks and program order — so the emitted
// stream is bit-deterministic however the ranks are scheduled.
func emitCounterEvents(sink TraceSink, rep *Report) {
	jc := rep.Counters
	if jc == nil || sink == nil {
		return
	}
	defs := metrics.Counters()
	for _, rc := range jc.Ranks {
		node := rep.Ranks[rc.Rank].Node
		finish := rep.Ranks[rc.Rank].Finish
		for id, v := range rc.Values {
			if v == 0 {
				continue
			}
			sink.Record(Event{
				Kind: EvCounter, Rank: rc.Rank, Node: node, Peer: -1,
				Name: defs[id].Name, Start: finish, Value: v,
			})
		}
	}
	period, samples := jc.AggregateSeries()
	if len(samples) == 0 {
		return
	}
	prev := make([]float64, len(defs))
	for _, s := range samples {
		for id, v := range s.Values {
			if v == prev[id] {
				continue
			}
			prev[id] = v
			sink.Record(Event{
				Kind: EvCounterSample, Rank: -1, Node: -1, Peer: -1,
				Name: defs[id].Name, Start: vclock.Time(s.At),
				Duration: period, Value: v,
			})
		}
	}
}
