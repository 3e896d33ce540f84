package simmpi

// Virtual-time edge cases: simultaneous events at equal virtual time
// across ranks, the (Start, Rank) tie-break in the merged timeline, and
// zero-duration Elapse. These are the cases where a sloppy engine would
// let real-time scheduling leak into results.

import (
	"fmt"
	"testing"

	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// vclockEdgeCases is the edge-case table. Every body is deterministic
// and leans on events landing at exactly equal virtual times; every
// sender of a message that carries bytes sends its own byte count.
var vclockEdgeCases = []struct {
	name  string
	procs int
	nodes int
	body  collBody
}{
	{
		// All ranks send to rank 0 having done zero work: every send
		// starts at exactly t=0 on every rank.
		name: "simultaneous-sends-at-zero", procs: 5, nodes: 1,
		body: func(r *Rank, _ *collSet) error {
			if r.ID() == 0 {
				for src := 1; src < r.Size(); src++ {
					r.Recv(src, 1)
				}
				return nil
			}
			r.Send(0, 1, units.Bytes(8*r.ID()))
			return nil
		},
	},
	{
		// Zero-duration Elapse must advance nothing and change nothing,
		// including between sends.
		name: "zero-duration-elapse", procs: 4, nodes: 2,
		body: func(r *Rank, cs *collSet) error {
			before := r.Now()
			r.Elapse(0)
			if r.Now() != before {
				return fmt.Errorf("Elapse(0) moved the clock: %v -> %v", before, r.Now())
			}
			r.Elapse(0)
			cs.Barrier(r)
			r.Elapse(0)
			cs.Allreduce(r, units.Bytes(8*(1+r.ID())))
			return nil
		},
	},
	{
		// Zero-byte, zero-compute ping-pong chains: every message on a
		// single node shares latency, so whole fronts of events tie.
		name: "tied-event-fronts", procs: 6, nodes: 1,
		body: func(r *Rank, _ *collSet) error {
			p := r.Size()
			for step := 0; step < 3; step++ {
				r.Send((r.ID()+1)%p, 70+step, 0)
				r.Recv((r.ID()-1+p)%p, 70+step)
			}
			return nil
		},
	},
	{
		// Equal-time collective entry: identical work on every rank, so
		// all p ranks hit the collective at the same virtual instant.
		name: "equal-time-collective", procs: 8, nodes: 4,
		body: func(r *Rank, cs *collSet) error {
			r.Compute(vecWork(1000))
			cs.Barrier(r)
			cs.Allreduce(r, units.Bytes(8*(1+r.ID()%3)))
			return nil
		},
	},
}

// TestVclockEdgeCasesAcrossEngines runs every edge case through both the
// batched collectives and the point-to-point reference oracle.
func TestVclockEdgeCasesAcrossEngines(t *testing.T) {
	t.Parallel()
	for _, tc := range vclockEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			assertCollectiveEquivalent(t, cfg(tc.procs, tc.nodes), true, tc.body)
		})
	}
}

// TestTimelineTieBreak pins the merged-trace ordering contract: events
// with equal Start times appear in ascending rank order.
func TestTimelineTieBreak(t *testing.T) {
	t.Parallel()
	c := cfg(4, 1)
	jobs := traceJobs(&c)
	_, err := Run(c, func(r *Rank) error {
		r.Compute(vecWork(100)) // identical on every rank: equal Start
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var last vclock.Time
	lastRank := -1
	for _, e := range (*jobs)[0].Events {
		if e.Kind != EvCompute {
			continue
		}
		if e.Start < last {
			t.Fatal("timeline not Start-ordered")
		}
		if e.Start == last && e.Rank <= lastRank {
			t.Fatalf("equal-Start events not rank-ordered: rank %d after %d", e.Rank, lastRank)
		}
		last, lastRank = e.Start, e.Rank
	}
}

// TestZeroDurationElapseAccounting pins Elapse(0) at the vclock level
// as the engine sees it: no time, no busy, no wait.
func TestZeroDurationElapseAccounting(t *testing.T) {
	t.Parallel()
	rep, err := Run(cfg(2, 1), func(r *Rank) error {
		for i := 0; i < 5; i++ {
			r.Elapse(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 0 {
		t.Fatalf("Elapse(0)s produced makespan %v", rep.Makespan)
	}
	for _, rr := range rep.Ranks {
		if rr.Busy != 0 || rr.Wait != 0 {
			t.Fatalf("rank %d accounted busy=%v wait=%v", rr.Rank, rr.Busy, rr.Wait)
		}
	}
}
