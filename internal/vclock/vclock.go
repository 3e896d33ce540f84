// Package vclock implements the virtual-time machinery for the simulator.
//
// Every simulated MPI rank owns a Clock that advances only through explicit
// Advance calls (compute phases) or AdvanceTo calls (synchronisation with
// messages from other ranks). Because ranks execute as coroutines in real
// time but account in virtual time, causality is maintained purely through
// the message-coupling rule: a receive completes at
//
//	max(receiver clock, sender clock at send + transfer time)
//
// which is the standard conservative parallel-discrete-event-simulation
// rule for a system whose only inter-rank dependencies are messages.
package vclock

import (
	"fmt"

	"a64fxbench/internal/units"
)

// Time is an absolute virtual timestamp, measured from the start of the
// simulated job.
type Time units.Duration

// Seconds reports the timestamp as seconds since job start.
func (t Time) Seconds() float64 { return units.Duration(t).Seconds() }

// String formats the timestamp as a duration from job start.
func (t Time) String() string { return units.Duration(t).String() }

// Add returns the timestamp shifted by d.
func (t Time) Add(d units.Duration) Time { return t + Time(d) }

// Max returns the later of two timestamps.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is one simulated rank's notion of time. It is not safe for
// concurrent use by multiple goroutines; each rank owns its clock
// exclusively, and cross-rank reads happen only through message timestamps.
type Clock struct {
	now Time
	// busy accumulates time spent in compute phases, wait accumulates
	// time spent blocked on communication; the two partition total time
	// and drive the profiler output.
	busy units.Duration
	wait units.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by a compute-phase duration.
// Negative durations are a programming error and panic.
func (c *Clock) Advance(d units.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.now = c.now.Add(d)
	c.busy += d
}

// AdvanceTo moves the clock to at least t, recording any jump as
// communication wait time. Moving to a time in the past is a no-op (the
// rank was simply ahead of the message).
func (c *Clock) AdvanceTo(t Time) {
	if t <= c.now {
		return
	}
	c.wait += units.Duration(t - c.now)
	c.now = t
}

// BusyTime reports cumulative compute time.
func (c *Clock) BusyTime() units.Duration { return c.busy }

// WaitTime reports cumulative communication-wait time.
func (c *Clock) WaitTime() units.Duration { return c.wait }
