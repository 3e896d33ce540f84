package simmpi

// Allocation guard for point-to-point messaging: a steady-state
// ping-pong exchange must not allocate per message. The engine's
// arena-backed route queues (event.go) reuse their backing arrays once
// drained, and float payloads travel unboxed; these tests pin that.

import (
	"runtime"
	"testing"
)

// pingPong runs a 2-rank ping-pong of iters round trips. The payload
// slice's ownership round-trips, so a leak-free runtime allocates only
// job setup, not per-iteration state.
func pingPong(iters int) error {
	_, err := Run(cfg(2, 1), func(r *Rank) error {
		buf := make([]float64, 64)
		for i := 0; i < iters; i++ {
			if r.ID() == 0 {
				r.SendFloats(1, 7, buf)
				buf = r.RecvFloats(1, 9)
			} else {
				buf = r.RecvFloats(0, 7)
				r.SendFloats(0, 9, buf)
			}
		}
		return nil
	})
	return err
}

// pingPongMallocs returns the process malloc count a ping-pong of iters
// round trips took.
func pingPongMallocs(t *testing.T, iters int) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pingPong(iters); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPingPongAllocGuard pins steady-state allocations per ping-pong
// round trip. Differencing a long run against a short one cancels the
// fixed job-setup allocations; the bound is deliberately loose against
// incidental runtime allocations but far below one alloc per message —
// the regression this guards against (per-route channels, per-message
// boxes) costs hundreds per thousand round trips. The subtest is named
// after the discrete-event engine it exercises.
func TestPingPongAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per channel operation")
	}
	t.Run("event", func(t *testing.T) {
		const short, long = 200, 5200
		base := pingPongMallocs(t, short)
		full := pingPongMallocs(t, long)
		var extra uint64
		if full > base {
			extra = full - base
		}
		perK := float64(extra) / float64(long-short) * 1000
		t.Logf("%d extra mallocs over %d round trips (%.1f per 1000)", extra, long-short, perK)
		if perK > 100 { // 0.1 allocs per round trip
			t.Fatalf("%.1f allocations per 1000 ping-pong round trips; route queues are leaking again", perK)
		}
	})
}

// BenchmarkPingPong reports ns and allocs per ping-pong round trip
// (allocs/op is the headline: it must be ~0).
func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	if err := pingPong(b.N); err != nil {
		b.Fatal(err)
	}
}
