package simmpi

import (
	"fmt"
	"io"
	"sort"

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
	// EvJobBegin marks the start of a job's event stream on a sink
	// (Rank is -1; Name carries the job label).
	EvJobBegin
	// EvJobEnd marks the end of a job's event stream (Duration is the
	// job makespan).
	EvJobEnd
	// EvLink summarises one interconnect link of a congestion-enabled
	// job (Rank is -1; Name is the link, Bytes/Duration its traffic and
	// busy time, Flows/PeakFlows its flow counts, Value its mean
	// utilization). Emitted between the timeline and EvJobEnd.
	EvLink
	// EvLinkSample is one utilization bucket of a busy link's time
	// series (Value is the bucket utilization in [0, 1]).
	EvLinkSample
	// EvCounter is one rank's final value of one virtual PMU counter
	// (Name is the counter, Value the cumulative value, Start the
	// rank's finish time). Emitted between the timeline and EvJobEnd
	// for jobs run with JobConfig.Counters, zero-valued counters
	// omitted, in (rank, counter-ID) order.
	EvCounter
	// EvCounterSample is one point of the job-aggregate counter series
	// (Rank is -1; Name is the counter, Start the sample's virtual
	// time, Duration the sampling period, Value the cumulative sum over
	// ranks). Only counters that changed since the previous sample are
	// emitted.
	EvCounterSample
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
	case EvJobBegin:
		return "job"
	case EvJobEnd:
		return "jobend"
	case EvLink:
		return "link"
	case EvLinkSample:
		return "linksample"
	case EvCounter:
		return "counter"
	case EvCounterSample:
		return "ctrsample"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one timeline entry: what a rank did, when (virtual time), and
// for how long.
type Event struct {
	Rank int
	// Node is the node index of the recording rank (-1 for job markers).
	Node  int
	Kind  EventKind
	Start vclock.Time
	// Duration covers the event in virtual time (for EvRecv this is
	// the blocked/wait portion; for EvRegionEnd the whole region; for
	// EvJobEnd the job makespan).
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
	// Name is the region name (EvRegionBegin/End), job label
	// (EvJobBegin/End), or link name (EvLink/EvLinkSample).
	Name string
	// Flows and PeakFlows are the total and peak-concurrent flow counts
	// of an EvLink event.
	Flows     int64
	PeakFlows int
	// Value is the utilization in [0, 1] for EvLink (mean while busy)
	// and EvLinkSample (one bucket).
	Value float64
}

// Finish is the virtual time at which the event completed.
func (e Event) Finish() vclock.Time { return e.Start.Add(e.Duration) }

// TraceSink consumes the event stream of traced jobs. The runtime calls
// Record once per event, from a single goroutine, in deterministic
// (Start, Rank) order, bracketed by EvJobBegin/EvJobEnd markers; Close is
// the owner's signal that no further jobs will be recorded. A nil sink on
// JobConfig disables tracing entirely.
type TraceSink interface {
	Record(Event)
	Close() error
}

// MemorySink is a TraceSink that retains the full event stream in memory
// for later analysis (e.g. by package obs).
type MemorySink struct {
	Events Timeline
}

// Record appends the event.
func (m *MemorySink) Record(e Event) { m.Events = append(m.Events, e) }

// Close is a no-op.
func (m *MemorySink) Close() error { return nil }

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
	case EvJobBegin:
		desc = e.Name
	case EvJobEnd:
		desc = fmt.Sprintf("%s makespan %v", e.Name, e.Duration)
	case EvLink:
		desc = fmt.Sprintf("%-22s busy %v util %3.0f%% flows %d peak %d %v",
			e.Name, e.Duration, 100*e.Value, e.Flows, e.PeakFlows, e.Bytes)
	case EvLinkSample:
		desc = fmt.Sprintf("%-22s util %3.0f%%", e.Name, 100*e.Value)
	case EvCounter, EvCounterSample:
		desc = fmt.Sprintf("%-22s %g", e.Name, e.Value)
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

// sortTimeline orders events by start time, breaking ties by rank.
// The sort is stable, so each rank's program order is preserved.
func sortTimeline(tl Timeline) {
	sort.SliceStable(tl, func(i, j int) bool {
		if tl[i].Start != tl[j].Start {
			return tl[i].Start < tl[j].Start
		}
		return tl[i].Rank < tl[j].Rank
	})
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
