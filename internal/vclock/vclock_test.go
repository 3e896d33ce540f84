package vclock

import (
	"testing"
	"testing/quick"

	"a64fxbench/internal/units"
)

func TestClockAdvance(t *testing.T) {
	t.Parallel()
	var c Clock
	c.Advance(units.DurationFromSeconds(1.5))
	c.Advance(units.DurationFromSeconds(0.5))
	if got := c.Now().Seconds(); got != 2.0 {
		t.Errorf("Now = %v s, want 2", got)
	}
	if got := c.BusyTime().Seconds(); got != 2.0 {
		t.Errorf("BusyTime = %v s, want 2", got)
	}
	if c.WaitTime() != 0 {
		t.Errorf("WaitTime = %v, want 0", c.WaitTime())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	t.Parallel()
	var c Clock
	c.Advance(units.Second)
	// Jump forward: wait time recorded.
	c.AdvanceTo(Time(3 * units.Second))
	if got := c.Now().Seconds(); got != 3.0 {
		t.Errorf("Now = %v, want 3", got)
	}
	if got := c.WaitTime().Seconds(); got != 2.0 {
		t.Errorf("WaitTime = %v, want 2", got)
	}
	// Jump backward: no-op.
	c.AdvanceTo(Time(units.Second))
	if got := c.Now().Seconds(); got != 3.0 {
		t.Errorf("Now after past AdvanceTo = %v, want 3", got)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative advance")
		}
	}()
	new(Clock).Advance(-units.Second)
}

func TestMax(t *testing.T) {
	t.Parallel()
	a, b := Time(units.Second), Time(2*units.Second)
	if Max(a, b) != b || Max(b, a) != b || Max(a, a) != a {
		t.Error("Max is wrong")
	}
}

// Property: clock time is always busy+wait partitioned — Now equals the sum
// of busy and wait accumulation for any interleaving of operations.
func TestClockPartitionProperty(t *testing.T) {
	t.Parallel()
	f := func(steps []uint16) bool {
		var c Clock
		for i, s := range steps {
			d := units.Duration(s) * units.Microsecond
			if i%2 == 0 {
				c.Advance(d)
			} else {
				c.AdvanceTo(c.Now().Add(d))
			}
		}
		return units.Duration(c.Now()) == c.BusyTime()+c.WaitTime()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AdvanceTo is idempotent and monotone.
func TestAdvanceToMonotoneProperty(t *testing.T) {
	t.Parallel()
	f := func(a, b uint32) bool {
		var c Clock
		ta := Time(units.Duration(a) * units.Microsecond)
		tb := Time(units.Duration(b) * units.Microsecond)
		c.AdvanceTo(ta)
		c.AdvanceTo(tb)
		want := Max(ta, tb)
		return c.Now() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
