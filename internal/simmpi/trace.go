package simmpi

import (
	"fmt"
	"io"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// EventKind labels one entry of a rank's execution timeline.
type EventKind int

// Event kinds.
const (
	// EvCompute is a metered kernel phase.
	EvCompute EventKind = iota
	// EvSend is a point-to-point injection.
	EvSend
	// EvRecv is a receive completion (including any wait).
	EvRecv
	// EvNoise is an injected OS-noise delay.
	EvNoise
	// EvRegionBegin opens a named phase/region (see Rank.Region).
	EvRegionBegin
	// EvRegionEnd closes the innermost open region; Duration spans the
	// whole region in virtual time.
	EvRegionEnd
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvNoise:
		return "noise"
	case EvRegionBegin:
		return "begin"
	case EvRegionEnd:
		return "end"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one timeline entry: what a rank did, when (virtual time), and
// for how long.
type Event struct {
	Rank int
	// Node is the node index of the recording rank.
	Node  int
	Kind  EventKind
	Start vclock.Time
	// Duration covers the event in virtual time (for EvRecv this is
	// the blocked/wait portion; for EvRegionEnd the whole region).
	Duration units.Duration
	// Class is set for EvCompute.
	Class perfmodel.KernelClass
	// Peer is the other rank for EvSend/EvRecv, -1 otherwise.
	Peer int
	// Tag is the message tag for EvSend/EvRecv (collective internals
	// use tags ≥ 1<<20).
	Tag int
	// Bytes is the wire size for EvSend/EvRecv, and the metered memory
	// traffic for EvCompute.
	Bytes units.Bytes
	// Flops is the metered floating-point work for EvCompute.
	Flops units.Flops
	// Name is the region name of EvRegionBegin/End.
	Name string
}

// Finish is the virtual time at which the event completed.
func (e Event) Finish() vclock.Time { return e.Start.Add(e.Duration) }

// TraceSink observes traced jobs: the runtime calls it once per job,
// when the job has finished, with the job's report carrying its merged
// timeline in Report.Events. Calls come from the goroutine that called
// Run, so a sink shared by sequential jobs sees them in order. A nil
// sink on JobConfig disables tracing entirely.
type TraceSink func(*Report)

// Timeline is the merged, time-ordered event log of a traced job.
type Timeline []Event

// WriteEvent renders one event as a single text line — the line format of
// the classic flat timeline view.
func WriteEvent(w io.Writer, e Event) (int, error) {
	var desc string
	switch e.Kind {
	case EvCompute:
		desc = fmt.Sprintf("%-8s %v", e.Class, e.Duration)
	case EvSend:
		desc = fmt.Sprintf("→ rank %-4d %v", e.Peer, e.Bytes)
	case EvRecv:
		desc = fmt.Sprintf("← rank %-4d %v (waited %v)", e.Peer, e.Bytes, e.Duration)
	case EvNoise:
		desc = fmt.Sprintf("os noise %v", e.Duration)
	case EvRegionBegin:
		desc = e.Name
	case EvRegionEnd:
		desc = fmt.Sprintf("%s (%v)", e.Name, e.Duration)
	}
	return fmt.Fprintf(w, "%12.6fs rank %-4d %-8s %s\n",
		e.Start.Seconds(), e.Rank, e.Kind, desc)
}

// WriteTo renders the timeline as one line per event (sorted by start
// time, then rank) — a poor man's trace viewer.
func (tl Timeline) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range tl {
		n, err := WriteEvent(w, e)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// mergeEvents merges the ranks' event logs into one timeline ordered by
// start time, ties broken by rank, and releases the logs. A rank's clock
// never goes back, so each log is already in start order: a p-way merge
// keeps every rank's program order and equals a stable sort of the
// concatenated logs.
func mergeEvents(ranks []*Rank) Timeline {
	var h []Timeline // min-heap of the logs' unmerged tails, by first event
	n := 0
	for _, r := range ranks {
		if len(r.events) > 0 {
			h = append(h, r.events)
			n += len(r.events)
		}
		r.events = nil
	}
	less := func(i, j int) bool {
		a, b := &h[i][0], &h[j][0]
		return a.Start < b.Start || a.Start == b.Start && a.Rank < b.Rank
	}
	down := func(i int) {
		for {
			m := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(h) && less(c, m) {
					m = c
				}
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make(Timeline, 0, n)
	for len(h) > 0 {
		out = append(out, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// traced reports whether the job has a trace sink. Callers of record
// check it first, so an untraced run never builds an Event.
func (r *Rank) traced() bool { return r.job.cfg.Trace != nil }

// record appends an event to the rank's log; call it only when traced.
func (r *Rank) record(e Event) {
	e.Rank = r.id
	e.Node = r.node
	r.events = append(r.events, e)
}

// regionFrame is one open region on a rank's region stack.
type regionFrame struct {
	name  string
	start vclock.Time
}

// Region opens a named phase/region on the rank's timeline. Regions nest;
// each Region must be balanced by EndRegion (unbalanced regions are
// closed automatically at job end). When the job has no trace sink this
// is a complete no-op — annotations cost nothing in untraced runs and
// never touch the virtual clock or statistics.
func (r *Rank) Region(name string) {
	if r.traced() {
		r.pushRegion(name)
	}
}

// EndRegion closes the innermost open region. No-op when tracing is off;
// an unmatched EndRegion in a traced run fails the job.
func (r *Rank) EndRegion() {
	if r.traced() {
		r.push(rankOp{kind: opEndRegion})
	}
}

// region plays a Region: it opens the frame at the rank's clock.
func (r *Rank) region(name string) {
	now := r.clock.Now()
	r.regions = append(r.regions, regionFrame{name: name, start: now})
	r.record(Event{Kind: EvRegionBegin, Start: now, Name: name, Peer: -1})
}

// endRegion plays an EndRegion; it panics if no region is open.
func (r *Rank) endRegion() {
	if len(r.regions) == 0 {
		panic("simmpi: EndRegion without a matching Region")
	}
	f := r.regions[len(r.regions)-1]
	r.regions = r.regions[:len(r.regions)-1]
	now := r.clock.Now()
	r.record(Event{
		Kind: EvRegionEnd, Start: now,
		Duration: units.Duration(now - f.start),
		Name:     f.name, Peer: -1,
	})
}

// closeRegions force-closes any regions a body left open at job end.
func (r *Rank) closeRegions() {
	for len(r.regions) > 0 {
		r.endRegion()
	}
}
