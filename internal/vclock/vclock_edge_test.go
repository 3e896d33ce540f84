package vclock

// Edge cases the discrete-event engine leans on: zero-duration
// advances, advancing exactly to the current instant, and equal-time
// comparisons. A clock that drifted (or accounted) on any of these
// would let event ordering leak into simmpi's results.

import (
	"testing"

	"a64fxbench/internal/units"
)

func TestZeroAdvanceIsIdentity(t *testing.T) {
	t.Parallel()
	c := NewClock()
	c.Advance(units.Millisecond)
	now, busy, wait := c.Now(), c.BusyTime(), c.WaitTime()
	for i := 0; i < 3; i++ {
		c.Advance(0)
	}
	if c.Now() != now || c.BusyTime() != busy || c.WaitTime() != wait {
		t.Fatalf("Advance(0) changed state: now %v busy %v wait %v", c.Now(), c.BusyTime(), c.WaitTime())
	}
}

func TestAdvanceToExactlyNow(t *testing.T) {
	t.Parallel()
	c := NewClock()
	c.Advance(units.Millisecond)
	// A message available at exactly the receiver's current instant —
	// the equal-virtual-time rendezvous — must add zero wait.
	c.AdvanceTo(c.Now())
	if c.WaitTime() != 0 {
		t.Fatalf("AdvanceTo(now) accounted wait %v", c.WaitTime())
	}
	// ... and to the past likewise.
	c.AdvanceTo(c.Now() - Time(units.Microsecond))
	if c.WaitTime() != 0 || c.Now() != Time(units.Millisecond) {
		t.Fatalf("AdvanceTo(past) moved the clock: now %v wait %v", c.Now(), c.WaitTime())
	}
}

func TestMaxTies(t *testing.T) {
	t.Parallel()
	a := Time(units.Second)
	if Max(a, a) != a {
		t.Fatal("Max of equal times must return that time")
	}
	if Max(0, 0) != 0 {
		t.Fatal("Max(0, 0) != 0")
	}
}

// TestInterleavedZeroAndRealAdvances replays the exact pattern the
// event engine's heap produces when many ranks tie at one instant:
// alternating zero-cost and real advances must account the same as the
// collapsed sequence.
func TestInterleavedZeroAndRealAdvances(t *testing.T) {
	t.Parallel()
	a, b := NewClock(), NewClock()
	for i := 0; i < 10; i++ {
		a.Advance(0)
		a.Advance(units.Microsecond)
		a.Advance(0)
		a.AdvanceTo(a.Now()) // zero-wait rendezvous
	}
	b.Advance(10 * units.Microsecond)
	if a.Now() != b.Now() || a.BusyTime() != b.BusyTime() || a.WaitTime() != b.WaitTime() {
		t.Fatalf("interleaved: now %v busy %v wait %v; collapsed: now %v busy %v wait %v",
			a.Now(), a.BusyTime(), a.WaitTime(), b.Now(), b.BusyTime(), b.WaitTime())
	}
}
