package simmpi

// Allocation guards: steady-state point-to-point messaging and world
// collectives must not allocate per message or per round. The engine's
// arena-backed route queues (event.go) reuse their backing arrays once
// drained, a message is a pointer-free wire size and availability time,
// and collective rounds pass their messages through one reusable slot
// array (collective_batch.go); these tests pin that.

import (
	"runtime"
	"testing"
)

// pingPong runs a 2-rank ping-pong of iters round trips of 512-byte
// messages. A leak-free runtime allocates only job setup, not
// per-iteration state.
func pingPong(iters int) error {
	_, err := Run(cfg(2, 1), func(r *Rank) error {
		for i := 0; i < iters; i++ {
			if r.ID() == 0 {
				r.Send(1, 7, 512)
				r.Recv(1, 9)
			} else {
				r.Recv(0, 7)
				r.Send(0, 9, 512)
			}
		}
		return nil
	})
	return err
}

// mallocs returns the process malloc count run took.
func mallocs(t *testing.T, run func() error) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// steadyAllocs returns the allocations per iteration of run beyond its
// fixed cost. Differencing a long run against a short one cancels the
// fixed job-setup allocations.
func steadyAllocs(t *testing.T, short, long int, run func(iters int) error) float64 {
	t.Helper()
	base := mallocs(t, func() error { return run(short) })
	full := mallocs(t, func() error { return run(long) })
	var extra uint64
	if full > base {
		extra = full - base
	}
	return float64(extra) / float64(long-short)
}

// TestPingPongAllocGuard pins steady-state allocations per ping-pong
// round trip. The bound is deliberately loose against incidental
// runtime allocations but far below one alloc per message — the
// regression this guards against (per-route channels, per-message
// boxes) costs hundreds per thousand round trips. The subtest is named
// after the discrete-event engine it exercises.
func TestPingPongAllocGuard(t *testing.T) {
	if RaceEnabled {
		t.Skip("race-detector instrumentation allocates per channel operation")
	}
	t.Run("event", func(t *testing.T) {
		perK := steadyAllocs(t, 200, 5200, pingPong) * 1000
		t.Logf("%.1f mallocs per 1000 round trips", perK)
		if perK > 100 { // 0.1 allocs per round trip
			t.Fatalf("%.1f allocations per 1000 ping-pong round trips; route queues are leaking again", perK)
		}
	})
}

// TestCollectiveAllocGuard pins steady-state allocations of
// per-iteration reductions at p = 48, a non-power-of-two size that
// exercises all three recursive-doubling phases: one of 64 bytes, and
// one of a scalar's 8 bytes, the size of the applications' dot-product
// reductions. An allocation per message would cost about 6 per rank per
// collective; the bound is 0.1.
func TestCollectiveAllocGuard(t *testing.T) {
	if RaceEnabled {
		t.Skip("race-detector instrumentation allocates per channel operation")
	}
	const p = 48
	bodies := []struct {
		name string
		body func(r *Rank, iters int)
	}{
		{"Allreduce", func(r *Rank, iters int) {
			for i := 0; i < iters; i++ {
				r.Allreduce(64)
			}
		}},
		{"AllreduceScalar", func(r *Rank, iters int) {
			for i := 0; i < iters; i++ {
				r.Allreduce(8)
			}
		}},
	}
	for _, b := range bodies {
		t.Run(b.name, func(t *testing.T) {
			perColl := steadyAllocs(t, 20, 520, func(iters int) error {
				_, err := Run(cfg(p, 4), func(r *Rank) error {
					b.body(r, iters)
					return nil
				})
				return err
			})
			perRank := perColl / p
			t.Logf("%.3f mallocs per collective (%.4f per rank)", perColl, perRank)
			if perRank > 0.1 {
				t.Fatalf("%.3f allocations per rank per %s; collective rounds are allocating again", perRank, b.name)
			}
		})
	}
}

// BenchmarkPingPong reports ns and allocs per ping-pong round trip
// (allocs/op is the headline: it must be ~0).
func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	if err := pingPong(b.N); err != nil {
		b.Fatal(err)
	}
}
