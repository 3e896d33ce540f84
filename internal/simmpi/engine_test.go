package simmpi

// The differential suite for the batched world collectives: every
// observable output of a job — the full Report (per-rank clocks, stats,
// counters, link heatmaps) and the merged trace timeline — must be
// byte-identical between a run through the batched collectives
// (collective_batch.go) and a run through the point-to-point reference
// oracle (collective_ref_test.go), for every communication pattern and
// option combination. The bodies also assert collective RESULTS (not
// just times), so the batched data path is checked against ground
// truth, not merely against the oracle.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
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

// runDigest executes one job with the given collectives and digests it.
func runDigest(t *testing.T, c JobConfig, cs *collSet, traced bool, body collBody) (Report, string) {
	t.Helper()
	var sink *MemorySink
	if traced {
		sink = &MemorySink{}
		c.Trace = sink
	}
	rep, err := Run(c, func(r *Rank) error { return body(r, cs) })
	if err != nil {
		t.Fatal(err)
	}
	var tl Timeline
	if sink != nil {
		tl = sink.Events
		if len(tl) == 0 {
			t.Fatal("traced run produced no events")
		}
	}
	return rep, reportDigest(t, rep, tl)
}

// assertCollectiveEquivalent runs body once through the batched
// collectives and once through the reference oracle and demands
// byte-identical digests.
func assertCollectiveEquivalent(t *testing.T, c JobConfig, traced bool, body collBody) {
	t.Helper()
	repB, digB := runDigest(t, c, batchedColls, traced, body)
	repR, digR := runDigest(t, c, refColls, traced, body)
	if digB != digR {
		t.Fatalf("batched collectives diverged from the reference:\n batched   makespan=%v msgs=%d bytes=%v\n reference makespan=%v msgs=%d bytes=%v",
			repB.Makespan, repB.TotalMsgs, repB.TotalBytesSent,
			repR.Makespan, repR.TotalMsgs, repR.TotalBytesSent)
	}
	if repB.Makespan <= 0 && repB.TotalMsgs > 0 {
		t.Fatal("degenerate job: messages moved but no time passed")
	}
}

// engineBodies is the pattern library of the differential suite. Every
// body self-checks its collective results; p is the job size it runs at.
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
					r.SendFloats(partner, 7, []float64{float64(r.ID()), float64(it)})
					got := r.RecvFloats(partner, 8)
					if got[0] != float64(partner) {
						return fmt.Errorf("pingpong got %v", got)
					}
				} else {
					got := r.RecvFloats(partner, 7)
					if got[1] != float64(it) {
						return fmt.Errorf("pingpong it %v", got)
					}
					r.SendFloats(partner, 8, []float64{float64(r.ID())})
				}
			}
		}
		return nil
	}},
	{"all-collectives", 1, func(r *Rank, cs *collSet) error {
		p := float64(r.Size())
		r.Compute(vecWork(500 * (1 + r.ID()%3)))
		cs.Barrier(r)
		// Allreduce: sum of rank ids.
		buf := []float64{float64(r.ID()), 1}
		cs.Allreduce(r, buf, OpSum)
		if want := p * (p - 1) / 2; buf[0] != want || buf[1] != p {
			return fmt.Errorf("allreduce got %v", buf)
		}
		// Bcast from a non-zero root.
		root := r.Size() / 2
		var payload []float64
		if r.ID() == root {
			payload = []float64{3.25, -1}
		} else {
			payload = []float64{0, 0}
		}
		payload = cs.Bcast(r, root, payload)
		if payload[0] != 3.25 {
			return fmt.Errorf("bcast got %v", payload)
		}
		// Reduce onto a non-zero root.
		rbuf := []float64{1}
		cs.Reduce(r, root, rbuf, OpSum)
		if r.ID() == root && rbuf[0] != p {
			return fmt.Errorf("reduce got %v", rbuf)
		}
		// Allgather.
		gathered := cs.Allgather(r, []float64{float64(10 * r.ID())})
		for i, v := range gathered {
			if v != float64(10*i) {
				return fmt.Errorf("allgather[%d] = %v", i, v)
			}
		}
		// Alltoall.
		send := make([][]float64, r.Size())
		for i := range send {
			send[i] = []float64{float64(r.ID()*100 + i)}
		}
		recv := cs.Alltoall(r, send)
		for i, blk := range recv {
			if blk[0] != float64(i*100+r.ID()) {
				return fmt.Errorf("alltoall[%d] = %v", i, blk)
			}
		}
		// ReduceScatter: block i = p * i-th element.
		rs := make([]float64, r.Size()*2)
		for i := range rs {
			rs[i] = float64(i)
		}
		mine := cs.ReduceScatter(r, rs, OpSum)
		if mine[0] != p*float64(2*r.ID()) || mine[1] != p*float64(2*r.ID()+1) {
			return fmt.Errorf("reducescatter got %v", mine)
		}
		// ExScan: prefix sum of rank ids.
		ex := cs.ExScan(r, []float64{float64(r.ID())}, OpSum)
		id := float64(r.ID())
		if want := id * (id - 1) / 2; ex[0] != want {
			return fmt.Errorf("exscan got %v want %v", ex, want)
		}
		r.Elapse(3 * units.Microsecond)
		return nil
	}},
	{"comm-split", 2, func(r *Rank, _ *collSet) error {
		c := r.Split(r.ID()%2, -r.ID())
		if got := c.AllreduceScalar(1, OpSum); got != float64(c.Size()) {
			return fmt.Errorf("split allreduce got %v", got)
		}
		c.Barrier()
		// Second split with a different shape; key reverses the order.
		c2 := r.Split(r.ID()%3, 0)
		if got := c2.AllreduceScalar(float64(r.ID()), OpMax); got < float64(r.ID()) {
			return fmt.Errorf("split2 max got %v", got)
		}
		return nil
	}},
	{"ring-sendrecv", 2, func(r *Rank, _ *collSet) error {
		p := r.Size()
		data := []float64{float64(r.ID())}
		for step := 0; step < p; step++ {
			right := (r.ID() + 1) % p
			left := (r.ID() - 1 + p) % p
			r.SendFloats(right, 40+step, data)
			data = r.RecvFloats(left, 40+step)
			r.Compute(vecWork(200))
		}
		if data[0] != float64(r.ID()) {
			return fmt.Errorf("ring ended with %v", data)
		}
		return nil
	}},
	{"imbalanced-collective", 2, func(r *Rank, cs *collSet) error {
		// Heavily skewed compute so ranks hit the collective at very
		// different virtual times.
		r.Compute(vecWork(100 * (1 + r.ID()*r.ID())))
		v := cs.allreduceScalar(r, float64(r.ID()), OpMax)
		if v != float64(r.Size()-1) {
			return fmt.Errorf("max got %v", v)
		}
		cs.Barrier(r)
		return nil
	}},
	{"many-to-one", 2, func(r *Rank, _ *collSet) error {
		if r.ID() == 0 {
			for src := 1; src < r.Size(); src++ {
				got := r.RecvFloats(src, 9)
				if got[0] != float64(src) {
					return fmt.Errorf("gathered %v from %d", got, src)
				}
			}
		} else {
			r.Compute(vecWork(300 * r.ID()))
			r.SendFloats(0, 9, []float64{float64(r.ID())})
		}
		return nil
	}},
}

// engineSizes covers the algorithmic corner cases: 1 (no-op
// collectives), powers of two, non-powers of two (allreduce folding,
// alltoall rotation, reduce-scatter's nested reduce), and a multi-node
// spread.
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

// TestEngineEquivalenceOptions crosses the all-collectives body with the
// full option matrix: tracing, counters, congestion, noise, and all at
// once.
func TestEngineEquivalenceOptions(t *testing.T) {
	t.Parallel()
	body := engineBodies[1].body // all-collectives
	opts := []struct {
		name   string
		mutate func(*JobConfig)
		traced bool
	}{
		{"plain", func(*JobConfig) {}, false},
		{"trace", func(*JobConfig) {}, true},
		{"counters", func(c *JobConfig) {
			c.Counters = &metrics.Config{Period: 20 * units.Microsecond, MaxSamples: 16}
		}, false},
		{"congestion", func(c *JobConfig) { c.Congestion = true }, false},
		{"noise", func(c *JobConfig) {
			c.NoiseProb = 0.3
			c.NoiseDuration = 5 * units.Microsecond
		}, false},
		{"everything", func(c *JobConfig) {
			c.Counters = &metrics.Config{Period: 20 * units.Microsecond, MaxSamples: 16}
			c.Congestion = true
			c.NoiseProb = 0.2
			c.NoiseDuration = 2 * units.Microsecond
		}, true},
	}
	for _, o := range opts {
		for _, sz := range []struct{ procs, nodes int }{{6, 2}, {8, 4}} {
			t.Run(fmt.Sprintf("%s/p%d_n%d", o.name, sz.procs, sz.nodes), func(t *testing.T) {
				t.Parallel()
				c := cfg(sz.procs, sz.nodes)
				o.mutate(&c)
				assertCollectiveEquivalent(t, c, o.traced, body)
			})
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
// already parked in a collective the failed rank will never join.
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
		r.AllreduceScalar(1, OpSum)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic error, got %v", err)
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
			r.AllreduceScalar(1, OpSum)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("want collective mismatch, got %v", err)
	}
}

// FuzzCollectiveEquivalence fuzzes the job shape — rank count, node
// count, message size, noise seed/probability, compute skew — and
// asserts the batched collectives stay byte-identical to the reference.
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
			r.Compute(vecWork(100 * (1 + r.ID()%(int(skew)+1))))
			buf := make([]float64, ml)
			for i := range buf {
				buf[i] = float64(r.ID()*ml + i)
			}
			cs.Allreduce(r, buf, OpSum)
			if p > 1 {
				partner := (r.ID() + p/2) % p
				r.SendFloats(partner, 5, buf[:1+ml/2])
				r.RecvFloats((r.ID()-p/2+p)%p, 5)
			}
			cs.Barrier(r)
			return nil
		}
		assertCollectiveEquivalent(t, c, true, body)
	})
}

// TestEnginePriceMemoMatchesModel pins the memoised pricing to the
// model it caches: same hops and bytes must return the identical bits.
func TestEnginePriceMemoMatchesModel(t *testing.T) {
	t.Parallel()
	c := cfg(4, 4)
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	e := &eventEngine{j: &job{cfg: c}, prices: map[uint64]units.Duration{}}
	for _, pair := range [][2]int{{0, 0}, {0, 1}, {0, 3}, {2, 1}, {1, 2}} {
		for _, bytes := range []units.Bytes{0, 8, 4096} {
			want := c.Fabric.PointToPoint(pair[0], pair[1], bytes)
			if got := e.price(pair[0], pair[1], bytes); got != want {
				t.Fatalf("price(%v, %d) = %v, model %v", pair, bytes, got, want)
			}
			// Second call exercises the cache hit.
			if got := e.price(pair[0], pair[1], bytes); got != want {
				t.Fatalf("cached price(%v, %d) = %v, model %v", pair, bytes, got, want)
			}
		}
	}
}
