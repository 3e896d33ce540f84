package simmpi

// The shift memo of collective outcomes. The applications are
// bulk-synchronous loops: every iteration repeats the same halo
// exchanges and reductions, and once the loop has settled, the ranks
// reach each of them with the same clocks relative to one another as
// before. The memo records such outcomes and replays them instead of
// the collective's messages.
//
// Eligibility. A job uses the memo only if it is untraced (Trace nil),
// uncounted (Counters nil) and contention-free (no congestState): traced,
// counted and congested runs log, count or price each message, so they
// always execute the collective. The executors stay the one
// implementation: every pattern's first instance, and every miss, runs
// them.
//
// Exactness. Virtual time is integer nanoseconds. In such a job a
// message's price is a fixed function of its node pair and size, and an
// executor moves a rank's clock only by Advance of fixed amounts (a
// send's injection overhead) and AdvanceTo the maximum of its clock and
// a message's availability, which is a sum of clocks and prices. So
// shifting every rank's arrival by Δ shifts every departure by Δ, and
// leaves each rank's busy and wait increments and its MsgsSent and
// BytesSent increments unchanged. A hit applies Advance(busy) and then
// AdvanceTo(base + out), base being the earliest arrival: that is bit
// for bit where the executor's sequence of Advance and AdvanceTo leaves
// the clock, since the clock ends at least busy past its arrival.
//
// Patterns and entries. A pattern is the collective's kind and each
// rank's operand: its byte count for Allreduce and Alltoall, the
// neighbourhood for NeighborExchange (the tag changes nothing an
// eligible job observes), nothing for Barrier. It stores each rank's
// busy, message and byte increments once; the pattern fixes them. An
// entry stores one instance's arrival and departure clocks relative to
// its earliest arrival, packed into one word per rank, and each pattern
// keeps a ring of its memoRing most recent entries. An instance whose
// relative clocks do not fit in 31 bits (2.1 s) is executed and never
// recorded; none of the paper sweeps' collectives comes near that.
//
// Storage. Patterns and entries are rows of p words from pooled row
// buffers; a job's rows total at most memoBudget bytes, and a pattern is
// opened only if its rows and one entry's fit.

import (
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

const (
	// memoRing is how many recent outcomes a pattern keeps. The quick
	// sweep replays 77.1% of its world collectives (63.0% of messages)
	// with 4, 80.8% (75.2%) with 8 and 83.5% (80.9%) with 16.
	memoRing = 8
	// memoBudget bounds a job's memo rows, in bytes: 127 rows of a
	// 4,128-rank job, five of the 100,032-rank smoke. The largest job
	// of the quick sweep takes 184 KiB.
	memoBudget = 4 << 20
	// memoSpan bounds the relative clocks an entry holds: each is a
	// 31-bit half of a word.
	memoSpan = 1 << 31
)

// memoEntry is one recorded outcome, a word per rank: the rank's arrival
// clock relative to the earliest arrival in the low half, its departure
// relative to the same origin in the high half. nil in a slot never
// filled.
type memoEntry []int64

// memoPattern is one pattern with its fixed per-rank increments and its
// ring of recent outcomes; next is the slot the next outcome fills.
type memoPattern struct {
	kind opKind
	nb   int     // the neighbourhood of a NeighborExchange
	args []int64 // each rank's operand of an Allreduce or Alltoall
	// busy, msgs and bytes are each rank's increments. Until the
	// pattern's first instance has run (fresh), they hold the counts it
	// started from.
	busy, msgs, bytes []int64
	fresh             bool
	ring              [memoRing]memoEntry
	next              int
}

// memo is a job's shift memo; it lives in the pooled slab.
type memo struct {
	pats []memoPattern
	rows [][]int64 // pooled row buffers; the job has taken rows[:taken]
	// taken counts rows handed out and left the budget's remaining words.
	taken, left int
	// in holds the relative arrivals of the collective being played,
	// base their origin, and fits whether they fit an entry.
	in   []int64
	base vclock.Time
	fits bool
}

// reset readies m for a job of p ranks.
func (m *memo) reset(p int) {
	m.pats = m.pats[:0]
	m.taken, m.left = 0, memoBudget/8
	m.in = grown(m.in, p)
}

// row hands out a row of p words.
func (m *memo) row(p int) []int64 {
	if m.taken == len(m.rows) {
		m.rows = append(m.rows, nil)
	}
	if cap(m.rows[m.taken]) < p {
		m.rows[m.taken] = make([]int64, p)
	}
	r := m.rows[m.taken][:p]
	m.taken++
	m.left -= p
	return r
}

// pattern returns the pattern of the collective being played, opening it
// at its first instance; nil if the job cannot keep another.
func (m *memo) pattern(e *eventEngine, kind opKind) *memoPattern {
	nb := -1
	if kind == opNeighbor {
		nb = e.coll.a
	}
	operands := kind == opAllreduce || kind == opAlltoall
	for i := range m.pats {
		pt := &m.pats[i]
		if pt.kind == kind && pt.nb == nb && (!operands || pt.sameArgs(e.args)) {
			return pt
		}
	}
	p := len(e.ranks)
	rows := 3 + 1 // the increments, and the first entry
	if operands {
		rows++
	}
	if rows*p > m.left {
		return nil
	}
	m.pats = append(m.pats, memoPattern{kind: kind, nb: nb, fresh: true})
	pt := &m.pats[len(m.pats)-1]
	if operands {
		pt.args = m.row(p)
		for i := range pt.args {
			pt.args[i] = e.args[i].n
		}
	}
	pt.busy, pt.msgs, pt.bytes = m.row(p), m.row(p), m.row(p)
	return pt
}

// sameArgs reports whether every rank passed the operand pt was opened
// with.
func (pt *memoPattern) sameArgs(args []rankOp) bool {
	for i, a := range pt.args {
		if args[i].n != a {
			return false
		}
	}
	return true
}

// replay plays the collective of pattern pt from a recorded outcome if
// the ranks' relative arrivals repeat one, and reports whether it did.
// Otherwise it leaves the arrivals for record; at the pattern's first
// instance it also notes the counts the increments start from.
func (m *memo) replay(e *eventEngine, pt *memoPattern) bool {
	base := e.ranks[0].clock.Now()
	for _, r := range e.ranks {
		if now := r.clock.Now(); now < base {
			base = now
		}
	}
	m.base, m.fits = base, true
	for i, r := range e.ranks {
		m.in[i] = int64(r.clock.Now() - base)
		m.fits = m.fits && m.in[i] < memoSpan
	}
	if pt.fresh {
		for i, r := range e.ranks {
			pt.busy[i] = int64(r.clock.BusyTime())
			pt.msgs[i] = r.stats.MsgsSent
			pt.bytes[i] = int64(r.stats.BytesSent)
		}
		return false
	}
	if !m.fits {
		return false
	}
	for k := 1; k <= memoRing; k++ {
		ent := pt.ring[(pt.next-k+memoRing)%memoRing]
		if ent == nil || !m.arrivedAs(ent) {
			continue
		}
		for i, r := range e.ranks {
			r.clock.Advance(units.Duration(pt.busy[i]))
			r.clock.AdvanceTo(base + vclock.Time(ent[i]>>32))
			r.stats.MsgsSent += pt.msgs[i]
			r.stats.BytesSent += units.Bytes(pt.bytes[i])
		}
		return true
	}
	return false
}

// arrivedAs reports whether the relative arrivals in m.in are those of
// entry ent.
func (m *memo) arrivedAs(ent memoEntry) bool {
	for i, w := range ent {
		if w&(memoSpan-1) != m.in[i] {
			return false
		}
	}
	return true
}

// record keeps the outcome of the collective of pattern pt the executor
// has just played, overwriting the ring's oldest entry, if its relative
// clocks fit one. While the budget lasts an empty slot takes a new row;
// after that the ring is as long as the slots it has filled.
func (m *memo) record(e *eventEngine, pt *memoPattern) {
	if pt.fresh {
		for i, r := range e.ranks {
			pt.busy[i] = int64(r.clock.BusyTime()) - pt.busy[i]
			pt.msgs[i] = r.stats.MsgsSent - pt.msgs[i]
			pt.bytes[i] = int64(r.stats.BytesSent) - pt.bytes[i]
		}
		pt.fresh = false
	}
	if !m.fits {
		return
	}
	for _, r := range e.ranks {
		if r.clock.Now()-m.base >= memoSpan {
			return
		}
	}
	p := len(e.ranks)
	ent := &pt.ring[pt.next]
	if *ent == nil {
		if p <= m.left {
			*ent = m.row(p)
		} else if pt.ring[0] != nil {
			pt.next = 0
			ent = &pt.ring[0]
		} else {
			return
		}
	}
	pt.next = (pt.next + 1) % memoRing
	for i, r := range e.ranks {
		(*ent)[i] = int64(r.clock.Now()-m.base)<<32 | m.in[i]
	}
}
