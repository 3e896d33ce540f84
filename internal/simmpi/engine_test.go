package simmpi

// The differential suite for the batched world collectives: every
// observable output of a job — the full Report (per-rank clocks, stats,
// counters, link heatmaps) and the merged trace timeline — must be
// byte-identical between a run through the batched collectives
// (collective_batch.go) and a run through the point-to-point reference
// oracle (collective_ref_test.go), for every communication pattern and
// option combination. Messages carry no values, so the bodies check
// pairing through sizes: every sender sends its own byte count, and a
// message paired with the wrong receive shows in the receivers' clocks
// and, in traced runs, in the byte counts of their receive events.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"a64fxbench/internal/metrics"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// reportDigest reduces a report plus its trace to a comparable hex
// string. JSON is canonical here: all slices, and Go marshals map keys
// sorted.
func reportDigest(t *testing.T, rep Report, tl Timeline) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(rep); err != nil {
		t.Fatalf("encode report: %v", err)
	}
	if err := enc.Encode(tl); err != nil {
		t.Fatalf("encode timeline: %v", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// collBody is a test job body that calls world collectives through cs.
type collBody func(r *Rank, cs *collSet) error

// runDigest executes one job with the given collectives and digests it,
// returning its engine too.
func runDigest(t *testing.T, c JobConfig, cs *collSet, traced bool, body collBody) (Report, string, *eventEngine) {
	t.Helper()
	var tl Timeline
	if traced {
		c.Trace = func(job *Report) { tl = job.Events }
	}
	var eng *eventEngine
	rep, err := Run(c, func(r *Rank) error {
		eng = r.eng
		return body(r, cs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if traced && len(tl) == 0 {
		t.Fatal("traced run produced no events")
	}
	return rep, reportDigest(t, rep, tl), eng
}

// assertCollectiveEquivalent runs body once through the batched
// collectives and once through the reference oracle and demands
// byte-identical digests. It returns how many of the batched run's
// world collectives the shift memo replayed.
func assertCollectiveEquivalent(t *testing.T, c JobConfig, traced bool, body collBody) int {
	t.Helper()
	repB, digB, eng := runDigest(t, c, batchedColls, traced, body)
	repR, digR, _ := runDigest(t, c, refColls, traced, body)
	if digB != digR {
		t.Fatalf("batched collectives diverged from the reference:\n batched   makespan=%v msgs=%d bytes=%v\n reference makespan=%v msgs=%d bytes=%v",
			repB.Makespan, repB.TotalMsgs, repB.TotalBytesSent,
			repR.Makespan, repR.TotalMsgs, repR.TotalBytesSent)
	}
	if repB.Makespan <= 0 && repB.TotalMsgs > 0 {
		t.Fatal("degenerate job: messages moved but no time passed")
	}
	return eng.replayed
}

// engineBodies is the pattern library of the differential suite. Every
// body gives each sender its own byte count; min is the smallest job
// size it runs at.
var engineBodies = []struct {
	name string
	min  int // smallest p the body supports
	body collBody
}{
	{"compute-pingpong", 2, func(r *Rank, _ *collSet) error {
		w := vecWork(1000 + 100*r.ID())
		for it := 0; it < 3; it++ {
			r.Compute(w)
			partner := r.ID() ^ 1
			if partner < r.Size() {
				if r.ID()&1 == 0 {
					r.Send(partner, 7, units.Bytes(8*(2+r.ID()+it)))
					r.Recv(partner, 8)
				} else {
					r.Recv(partner, 7)
					r.Send(partner, 8, units.Bytes(8*(1+r.ID())))
				}
			}
		}
		return nil
	}},
	{"all-collectives", 1, func(r *Rank, cs *collSet) error {
		r.Compute(vecWork(500 * (1 + r.ID()%3)))
		cs.Barrier(r)
		// Allreduce and Alltoall: each sender's own size, so a pairing
		// error shows in the receivers' times even untraced.
		cs.Allreduce(r, units.Bytes(16*(1+r.ID()%4)))
		cs.Alltoall(r, units.Bytes(8*(1+r.ID()%3)))
		r.Elapse(3 * units.Microsecond)
		return nil
	}},
	{"ring-sendrecv", 2, func(r *Rank, _ *collSet) error {
		p := r.Size()
		for step := 0; step < p; step++ {
			right := (r.ID() + 1) % p
			left := (r.ID() - 1 + p) % p
			r.Send(right, 40+step, units.Bytes(8*(1+(r.ID()+step)%4)))
			r.Recv(left, 40+step)
			r.Compute(vecWork(200))
		}
		return nil
	}},
	{"imbalanced-collective", 2, func(r *Rank, cs *collSet) error {
		// Heavily skewed compute so ranks hit the collective at very
		// different virtual times.
		r.Compute(vecWork(100 * (1 + r.ID()*r.ID())))
		cs.Allreduce(r, units.Bytes(8*(1+r.ID()%5)))
		cs.Barrier(r)
		return nil
	}},
	{"halo-exchange", 1, haloExchangeBody},
	{"run-ahead", 1, runAheadBody},
	{"repeated", 1, repeatedBody(false)},
	{"repeated-shifted", 1, repeatedBody(true)},
	{"many-to-one", 2, func(r *Rank, _ *collSet) error {
		if r.ID() == 0 {
			for src := 1; src < r.Size(); src++ {
				r.Recv(src, 9)
			}
		} else {
			r.Compute(vecWork(300 * r.ID()))
			r.Send(0, 9, units.Bytes(8*r.ID()))
		}
		return nil
	}},
}

// haloExchangeBody drives NeighborExchange through the halo shapes the
// applications use and the matching rules they rely on, with compute
// skew between exchanges. Halos carry no payload, so the digest — every
// send and receive event's peer, tag, bytes and time — is the check.
func haloExchangeBody(r *Rank, cs *collSet) error {
	id, p := r.ID(), r.Size()
	// decomp-style 3D faces on the most cubic grid: face f's message
	// goes out with offset f and the neighbour's opposite face comes
	// back with offset f^1. Bytes differ per sender and face.
	pz, py := 1, 1
	for a := 1; a*a*a <= p; a++ {
		if p%a == 0 {
			pz = a
		}
	}
	q := p / pz
	for b := pz; b*b <= q; b++ {
		if q%b == 0 {
			py = b
		}
	}
	px := q / py
	x, y, z := id%px, id/px%py, id/(px*py)
	var faces []Halo
	for f, d := range [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
		nx, ny, nz := x+d[0], y+d[1], z+d[2]
		if nx < 0 || nx >= px || ny < 0 || ny >= py || nz < 0 || nz >= pz {
			continue
		}
		faces = append(faces, Halo{Peer: nx + px*(ny+py*nz), SendTag: f, RecvTag: f ^ 1,
			Bytes: units.Bytes(64 * (1 + (id*7+f)%5))})
	}
	// A 1D chain over the first half of the ranks; the trailing ranks
	// are idle and register no halos, as COSA's do.
	active := (p + 1) / 2
	var chain []Halo
	if id < active {
		if id > 0 {
			chain = append(chain, Halo{Peer: id - 1, Bytes: 96})
		}
		if id < active-1 {
			chain = append(chain, Halo{Peer: id + 1, Bytes: units.Bytes(40 * (id + 1))})
		}
	}
	// Pairs id, id^1: two halos to one peer with different tags and
	// sizes, each received in the opposite order to its send; then two
	// messages on one (peer, tag), which must match first-in first-out.
	var swapped, fifo []Halo
	if partner := id ^ 1; partner < p {
		swapped = []Halo{
			{Peer: partner, SendTag: 0, RecvTag: 1, Bytes: units.Bytes(8 + id)},
			{Peer: partner, SendTag: 1, RecvTag: 0, Bytes: units.Bytes(4096 + 8*id)},
		}
		fifo = []Halo{
			{Peer: partner, Bytes: units.Bytes(16 * (id + 1))},
			{Peer: partner, Bytes: units.Bytes(2048 + id)},
		}
	}
	nbFaces, nbChain := r.Neighborhood(faces), r.Neighborhood(chain)
	nbSwapped, nbFIFO := r.Neighborhood(swapped), r.Neighborhood(fifo)
	// The faces run twice, under different tags.
	for it, x := range []struct {
		nb  Neighborhood
		tag int
	}{{nbFaces, 10}, {nbChain, 20}, {nbSwapped, 30}, {nbFIFO, 40}, {nbFaces, 50}} {
		r.Compute(vecWork(100 * (1 + (id*(it+3))%7)))
		cs.NeighborExchange(r, x.nb, x.tag)
	}
	r.Elapse(2 * units.Microsecond)
	return nil
}

// runAheadBody queues more than a window of ops between two collectives
// — compute phases, sends and receives, elapses — and reads Stats and
// Now in the middle of it: each must count every op queued before the
// read, so the rank waits for its queue to be played, and its peers'
// sends, which sit in their own queues, must be played first. It ends
// with a halo exchange of a neighbourhood registered only after the
// earlier collectives have run, whose list is longer than a window.
func runAheadBody(r *Rank, cs *collSet) error {
	id, p := r.ID(), r.Size()
	w := queueWindow(p)
	cs.Barrier(r)
	base := r.Stats()
	var flops units.Flops
	var sent int64
	for i := 0; i < w+w/2; i++ {
		work := vecWork(20 * (1 + (id+i)%5))
		r.Compute(work)
		flops += work.Flops
		if p > 1 && i%4 == 0 {
			r.Send((id+1)%p, 50+i, units.Bytes(8*(1+(id+i)%3)))
			r.Recv((id-1+p)%p, 50+i)
			sent++
		}
	}
	st := r.Stats()
	if st.Flops-base.Flops != flops || st.MsgsSent-base.MsgsSent != sent {
		return fmt.Errorf("mid-window Stats counted %v flops and %d sends, want %v and %d",
			st.Flops-base.Flops, st.MsgsSent-base.MsgsSent, flops, sent)
	}
	t1 := r.Now()
	d := units.Duration(1+id) * units.Microsecond
	for i := 0; i < w+3; i++ {
		r.Elapse(d)
	}
	if t2 := r.Now(); t2 != t1.Add(units.Duration(w+3)*d) {
		return fmt.Errorf("Now after %d elapses of %v: %v, want %v", w+3, d, t2, t1.Add(units.Duration(w+3)*d))
	}
	cs.Allreduce(r, units.Bytes(8*(1+id%2)))
	for i := 0; i < w+1; i++ {
		r.Compute(vecWork(30 * (1 + (id*i)%3)))
	}
	cs.Alltoall(r, 16)
	// Pairs of halos trading with both ring neighbours.
	var ring []Halo
	for k := 0; k < w/2+3; k++ {
		ring = append(ring,
			Halo{Peer: (id + 1) % p, SendTag: 2 * k, RecvTag: 2*k + 1, Bytes: units.Bytes(8 * (1 + k%4))},
			Halo{Peer: (id - 1 + p) % p, SendTag: 2*k + 1, RecvTag: 2 * k, Bytes: 24})
	}
	cs.NeighborExchange(r, r.Neighborhood(ring), 0)
	r.Elapse(units.Microsecond)
	return nil
}

// repeatedBody repeats each of the four collectives over several
// iterations of a loop with fixed per-rank compute skew, so the shift
// memo replays its later instances. With shifted, every rank first
// elapses an offset: the same for all ranks on even iterations, which
// moves every arrival by one Δ and leaves the relative arrivals a
// recorded outcome holds, and a per-rank one on odd iterations, which
// changes them.
func repeatedBody(shifted bool) collBody {
	return func(r *Rank, cs *collSet) error {
		id, p := r.ID(), r.Size()
		ring := r.Neighborhood([]Halo{
			{Peer: (id + 1) % p, SendTag: 0, RecvTag: 1, Bytes: units.Bytes(32 * (1 + id%3))},
			{Peer: (id - 1 + p) % p, SendTag: 1, RecvTag: 0, Bytes: 48},
		})
		for it := 0; it < 6; it++ {
			if shifted {
				d := units.Duration(1+it) * units.Microsecond
				if it%2 == 1 {
					d = units.Duration(1+(id*it)%3) * units.Microsecond
				}
				r.Elapse(d)
			}
			r.Compute(vecWork(100 * (1 + id%3)))
			cs.Barrier(r)
			r.Compute(vecWork(50 * (1 + id%2)))
			cs.Allreduce(r, units.Bytes(8*(1+id%4)))
			cs.Alltoall(r, units.Bytes(8*(1+id%3)))
			cs.NeighborExchange(r, ring, 8*it)
		}
		return nil
	}
}

// TestMemoEquivalence runs the repeated bodies untraced, where the shift
// memo replays collectives, and traced, where it is off, at every size:
// both must equal the reference oracle, and the untraced run must replay
// at least one collective.
func TestMemoEquivalence(t *testing.T) {
	t.Parallel()
	for _, shifted := range []bool{false, true} {
		for _, sz := range engineSizes {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("shifted=%v/traced=%v/p%d_n%d", shifted, traced, sz.procs, sz.nodes), func(t *testing.T) {
					t.Parallel()
					replayed := assertCollectiveEquivalent(t, cfg(sz.procs, sz.nodes), traced, repeatedBody(shifted))
					if traced && replayed != 0 {
						t.Fatalf("a traced job replayed %d collectives from the memo", replayed)
					}
					if !traced && replayed == 0 {
						t.Fatal("the memo replayed no collective")
					}
				})
			}
		}
	}
}

// engineSizes covers the algorithmic corner cases: 1 (no-op
// collectives), powers of two, non-powers of two (allreduce folding,
// alltoall rotation), and a multi-node spread.
var engineSizes = []struct {
	procs, nodes int
}{
	{1, 1}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {7, 3}, {8, 4}, {12, 4},
}

// TestEngineEquivalence runs every body at every size through both
// collective implementations.
func TestEngineEquivalence(t *testing.T) {
	t.Parallel()
	for _, b := range engineBodies {
		for _, sz := range engineSizes {
			if sz.procs < b.min {
				continue
			}
			t.Run(fmt.Sprintf("%s/p%d_n%d", b.name, sz.procs, sz.nodes), func(t *testing.T) {
				t.Parallel()
				assertCollectiveEquivalent(t, cfg(sz.procs, sz.nodes), true, b.body)
			})
		}
	}
}

// TestEngineEquivalenceOptions crosses the all-collectives,
// halo-exchange and run-ahead bodies with the full option matrix:
// tracing, counters, congestion, noise, and all at once.
func TestEngineEquivalenceOptions(t *testing.T) {
	t.Parallel()
	// The all-collectives subtests keep their unprefixed names.
	bodies := []struct {
		prefix string
		body   collBody
	}{{"", engineBodies[1].body}, {"halo-exchange/", haloExchangeBody}, {"run-ahead/", runAheadBody}}
	opts := []struct {
		name   string
		mutate func(*JobConfig)
		traced bool
	}{
		{"plain", func(*JobConfig) {}, false},
		{"trace", func(*JobConfig) {}, true},
		{"counters", func(c *JobConfig) {
			c.Counters = &metrics.Config{Period: 625 * units.Nanosecond}
		}, false},
		{"congestion", func(c *JobConfig) { c.Congestion = true }, false},
		{"noise", func(c *JobConfig) {
			c.NoiseProb = 0.3
			c.NoiseDuration = 5 * units.Microsecond
		}, false},
		{"everything", func(c *JobConfig) {
			c.Counters = &metrics.Config{Period: 625 * units.Nanosecond}
			c.Congestion = true
			c.NoiseProb = 0.2
			c.NoiseDuration = 2 * units.Microsecond
		}, true},
	}
	for _, b := range bodies {
		for _, o := range opts {
			for _, sz := range []struct{ procs, nodes int }{{6, 2}, {8, 4}} {
				t.Run(fmt.Sprintf("%s%s/p%d_n%d", b.prefix, o.name, sz.procs, sz.nodes), func(t *testing.T) {
					t.Parallel()
					c := cfg(sz.procs, sz.nodes)
					o.mutate(&c)
					assertCollectiveEquivalent(t, c, o.traced, b.body)
				})
			}
		}
	}
}

// vecWork builds a small deterministic compute phase scaled by n.
func vecWork(n int) perfmodel.WorkProfile {
	return perfmodel.WorkProfile{
		Class: perfmodel.VectorOp,
		Flops: units.Flops(n) * units.KFlop,
		Bytes: units.Bytes(n) * 64,
	}
}

// TestEventEngineErrorPropagation: a failing rank must surface its
// error instead of hanging the loop, including when the other ranks are
// blocked in a collective the failed rank will never join.
func TestEventEngineErrorPropagation(t *testing.T) {
	t.Parallel()
	c := cfg(4, 2)
	boom := fmt.Errorf("rank 2 gave up")
	_, err := Run(c, func(r *Rank) error {
		if r.ID() == 2 {
			return boom
		}
		r.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("want rank error, got %v", err)
	}
	// Panics become errors too.
	_, err = Run(c, func(r *Rank) error {
		if r.ID() == 1 {
			panic("kaboom")
		}
		r.Allreduce(8)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic error, got %v", err)
	}
	// A send to a rank outside the job fails when it is played, between
	// queued compute phases, with the text the send itself panicked
	// with when bodies executed each operation in place.
	_, err = Run(c, func(r *Rank) error {
		r.Compute(vecWork(100))
		if r.ID() == 0 {
			r.Send(99, 1, 8)
		}
		r.Compute(vecWork(100))
		r.Barrier()
		return nil
	})
	if want := "rank 0 panicked: simmpi: send to invalid rank 99 (size 4)"; err == nil || err.Error() != want {
		t.Fatalf("queued send outside the job: got %v, want %q", err, want)
	}
}

// TestEventEngineDeadlockDetection: a receive that can never be matched
// must produce a diagnostic, not a hang.
func TestEventEngineDeadlockDetection(t *testing.T) {
	t.Parallel()
	c := cfg(2, 1)
	_, err := Run(c, func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(1, 99) // never sent
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	// Mismatched collectives are a loud panic-turned-error.
	_, err = Run(c, func(r *Rank) error {
		if r.ID() == 0 {
			r.Barrier()
		} else {
			r.Allreduce(8)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("want collective mismatch, got %v", err)
	}
	_, err = Run(cfg(4, 2), func(r *Rank) error {
		nb := r.Neighborhood([]Halo{{Peer: r.ID() ^ 1, SendTag: 1, RecvTag: 1, Bytes: 8}})
		if r.ID()%2 == 0 {
			r.NeighborExchange(nb, 0)
		} else {
			r.Allreduce(8)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("halo vs allreduce: want collective mismatch, got %v", err)
	}
	// A mismatch reached only after every rank has queued more than a
	// window of ops is reported as it was when bodies ran in place.
	_, err = Run(cfg(4, 2), func(r *Rank) error {
		for i := 0; i < queueWindow(r.Size())+6; i++ {
			r.Elapse(units.Microsecond)
			r.Compute(vecWork(10))
		}
		if r.ID() == 0 {
			r.Barrier()
		} else {
			r.Alltoall(8)
		}
		return nil
	})
	if want := "rank 1 panicked: simmpi: collective mismatch: rank 1 entered Alltoall while others are in Barrier"; err == nil || err.Error() != want {
		t.Fatalf("mismatch after a full window: got %v, want %q", err, want)
	}
	// A bad neighbourhood fails at its first exchange, inside the
	// batched executor; the error names the faulty rank, its peer and
	// the wire tag (the exchange's tag, 100, plus the offset), whichever
	// rank arrived last.
	badHalos := []struct {
		name  string
		halos func(r *Rank) []Halo
		want  []string
	}{
		{"tag never sent", func(r *Rank) []Halo {
			recv := 5
			if r.ID() == 2 {
				recv = 99
			}
			return []Halo{{Peer: r.ID() ^ 1, SendTag: 5, RecvTag: recv, Bytes: 8}}
		}, []string{"rank 2", "peer 3", "tag 199"}},
		{"peer out of range", func(r *Rank) []Halo {
			if r.ID() == 1 {
				return []Halo{{Peer: 4, SendTag: 6, RecvTag: 7, Bytes: 8}}
			}
			return nil
		}, []string{"rank 1", "peer 4", "tag 106"}},
	}
	for _, bh := range badHalos {
		_, err = Run(cfg(4, 2), func(r *Rank) error {
			r.NeighborExchange(r.Neighborhood(bh.halos(r)), 100)
			return nil
		})
		if err == nil {
			t.Fatalf("%s: want an error", bh.name)
		}
		for _, w := range bh.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: error %q does not name %q", bh.name, err, w)
			}
		}
	}
}

// TestEventEngineAbortUnwindsRanks: Run must leave no rank coroutine
// behind, whether the job succeeds or fails — by a deadlock, by a rank
// body that panics while the others' bodies wait in Now for a collective
// to be played, or by a panic
// in the batched executor while the completing arrival is played (an
// unmatched halo receive). Every coroutine has finished or been stopped
// by the time Run returns, so a long-lived caller that keeps going leaks
// nothing. Not parallel: it counts the process's goroutines.
func TestEventEngineAbortUnwindsRanks(t *testing.T) {
	cases := []struct {
		name string
		body func(r *Rank) error
		want string // a substring of the job's error; "" if it must succeed
	}{
		{"success", func(r *Rank) error {
			r.Compute(vecWork(100 * (1 + r.ID())))
			r.Allreduce(8)
			r.Send((r.ID()+1)%r.Size(), 3, 8)
			r.Recv((r.ID()+r.Size()-1)%r.Size(), 3)
			r.Barrier()
			return nil
		}, ""},
		{"deadlock", func(r *Rank) error {
			if r.ID() > 0 {
				r.Recv(0, 99) // never sent
			}
			return nil
		}, "deadlock"},
		{"body panic", func(r *Rank) error {
			if r.ID() == r.Size()-1 {
				panic("gave up at the allreduce")
			}
			r.Allreduce(8)
			r.Now()
			return nil
		}, "rank 15 panicked: gave up at the allreduce"},
		{"unmatched halo", func(r *Rank) error {
			nb := r.Neighborhood([]Halo{{Peer: (r.ID() + 1) % r.Size(), SendTag: 1, RecvTag: 2, Bytes: 8}})
			r.NeighborExchange(nb, 0)
			return nil
		}, "NeighborExchange"},
		{"mismatched neighbourhoods", func(r *Rank) error {
			ring := r.Neighborhood([]Halo{{Peer: (r.ID() + 1) % r.Size(), Bytes: 8}, {Peer: (r.ID() + r.Size() - 1) % r.Size(), Bytes: 8}})
			none := r.Neighborhood(nil)
			if r.ID() == 5 {
				ring = none
			}
			r.NeighborExchange(ring, 0)
			return nil
		}, "collective mismatch"},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		_, err := Run(cfg(16, 4), c.body)
		if c.want == "" && err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Fatalf("%s: want an error containing %q, got %v", c.name, c.want, err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines once Run returned, %d before", c.name, n, before)
		}
	}
}

// gateJob runs the dispatch gates' job and returns its engine: each of
// 48 ranks runs 200 iterations of a compute phase, a ring halo exchange
// and a bytes-only reduction, 600 ops and 400 world collectives.
func gateJob(t *testing.T) *eventEngine {
	t.Helper()
	const p, iters = 48, 200
	if w := queueWindow(p); w != 64 {
		t.Fatalf("window at p = %d is %d; the gates assume 64", p, w)
	}
	var eng *eventEngine
	_, err := Run(cfg(p, 4), func(r *Rank) error {
		if r.ID() == 0 {
			eng = r.eng
		}
		id := r.ID()
		ring := r.Neighborhood([]Halo{
			{Peer: (id + 1) % p, SendTag: 1, RecvTag: 2, Bytes: 64},
			{Peer: (id - 1 + p) % p, SendTag: 2, RecvTag: 1, Bytes: 64},
		})
		for it := 0; it < iters; it++ {
			r.Compute(vecWork(100 * (1 + id%3)))
			r.NeighborExchange(ring, 0)
			r.Allreduce(8)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.colls != 2*iters {
		t.Fatalf("the job played %d world collectives, want %d", eng.colls, 2*iters)
	}
	return eng
}

// TestResumeGate bounds how often the engine resumes rank bodies, a
// machine-independent measure of its dispatch cost. A body of gateJob
// is resumed only once its queue has drained, so a window of w = 64 ops
// costs one resume, and the job may take at most p·(⌈600/w⌉ + 1) = 528.
// Resuming every rank at every collective would take 48 × 401 = 19,248.
func TestResumeGate(t *testing.T) {
	t.Parallel()
	const bound = 48 * ((600+63)/64 + 1)
	eng := gateJob(t)
	t.Logf("%d resumes for 48 ranks × 600 ops (bound %d)", eng.resumes, bound)
	if eng.resumes > bound {
		t.Fatalf("%d coroutine resumes, bound %d: bodies are resumed more often than once per window", eng.resumes, bound)
	}
}

// TestMemoGate bounds how many of gateJob's 400 world collectives the
// engine executes message by message, a machine-independent measure of
// what the shift memo saves. The loop settles within a few iterations:
// from then on both collectives arrive with the relative clocks of
// their previous instance, and the memo replays them. Executing every
// one would play 400.
func TestMemoGate(t *testing.T) {
	t.Parallel()
	const bound = 12
	eng := gateJob(t)
	executed := eng.colls - eng.replayed
	t.Logf("%d of %d world collectives executed, %d replayed (bound %d)", executed, eng.colls, eng.replayed, bound)
	if executed > bound {
		t.Fatalf("%d world collectives executed message by message, bound %d: the shift memo is not replaying the loop", executed, bound)
	}
}

// FuzzCollectiveEquivalence fuzzes the job shape — rank count, node
// count, message size, noise seed/probability, compute skew — and
// asserts the batched collectives stay byte-identical to the reference,
// traced and untraced, over a loop of three iterations, so the untraced
// run also replays collectives from the shift memo. Every sender's
// reduction and send sizes differ from its peers'. The halo exchange's
// shift (each rank trades with id±shift) comes from the skew, so the
// fuzzer also draws self-halos (shift = p) and two halos to one peer
// (shift = p/2).
func FuzzCollectiveEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(64), uint8(0), uint8(1))
	f.Add(uint8(7), uint8(3), uint16(1), uint8(50), uint8(3))
	f.Add(uint8(1), uint8(1), uint16(512), uint8(10), uint8(0))
	f.Add(uint8(16), uint8(4), uint16(100), uint8(90), uint8(7))
	f.Fuzz(func(t *testing.T, procs, nodes uint8, msgLen uint16, noise, skew uint8) {
		p := int(procs)%24 + 1
		n := int(nodes)%8 + 1
		if n > p {
			n = p
		}
		c := cfg(p, n)
		c.NoiseProb = float64(noise%101) / 100
		c.NoiseDuration = units.Microsecond
		ml := int(msgLen)%1024 + 1
		body := func(r *Rank, cs *collSet) error {
			shift := 1 + int(skew)%p
			nb := r.Neighborhood([]Halo{
				{Peer: (r.ID() + shift) % p, SendTag: 3, RecvTag: 4, Bytes: units.Bytes(8 * ml)},
				{Peer: (r.ID() - shift + p) % p, SendTag: 4, RecvTag: 3, Bytes: units.Bytes(8 * (1 + r.ID()%3))},
			})
			for it := 0; it < 3; it++ {
				r.Compute(vecWork(100 * (1 + r.ID()%(int(skew)+1))))
				cs.Allreduce(r, units.Bytes(8*(ml+r.ID())))
				if p > 1 {
					partner := (r.ID() + p/2) % p
					r.Send(partner, 5, units.Bytes(8*(1+ml/2+r.ID())))
					r.Recv((r.ID()-p/2+p)%p, 5)
				}
				cs.NeighborExchange(r, nb, 0)
				cs.Barrier(r)
			}
			return nil
		}
		assertCollectiveEquivalent(t, c, true, body)
		assertCollectiveEquivalent(t, c, false, body)
	})
}
