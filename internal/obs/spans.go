package obs

import (
	"io"

	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/telemetry"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// Span-tree export: the serve daemon's flight recorder retains one
// telemetry span tree per slow or errored request, and this file maps
// those trees onto the existing Chrome/Perfetto exporter — one process
// (pid) per request, the span hierarchy as nested region slices — so
// "why was this request slow" is answered with the same viewer as "why
// was this job slow".

// SpanJob converts one request's span tree into a one-rank job report
// whose timeline is the tree rendered as nested region begin/end pairs.
// Virtual-clock spans are skipped: their times live on the simulated
// clock and would land nonsensically on the request's wall timeline
// (the text and JSON views of the same entry retain them). A nil root
// yields an empty job.
func SpanJob(label string, root *telemetry.SpanNode) *simmpi.Report {
	job := &simmpi.Report{Label: label}
	if root == nil {
		return job
	}
	job.Makespan = units.Duration(root.DurationNS)
	var emit func(n *telemetry.SpanNode)
	emit = func(n *telemetry.SpanNode) {
		if n == nil || n.Clock == string(telemetry.ClockVirtual) {
			return
		}
		job.Events = append(job.Events, simmpi.Event{
			Kind: simmpi.EvRegionBegin, Rank: 0, Node: 0, Peer: -1,
			Name: n.Name, Start: vclock.Time(n.StartNS),
		})
		for _, c := range n.Children {
			emit(c)
		}
		job.Events = append(job.Events, simmpi.Event{
			Kind: simmpi.EvRegionEnd, Rank: 0, Node: 0, Peer: -1,
			Name: n.Name, Start: vclock.Time(n.StartNS + n.DurationNS),
			Duration: units.Duration(n.DurationNS),
		})
	}
	emit(root)
	if len(job.Events) > 0 {
		job.Ranks = make([]simmpi.RankResult, 1)
	}
	return job
}

// WriteSpanChrome renders flight-recorder entries as one Chrome
// trace-event document, one process per entry labelled with the
// entry's identity line.
func WriteSpanChrome(w io.Writer, entries []*telemetry.Entry) error {
	s := NewChromeSink(w)
	for _, e := range entries {
		if e != nil && e.Spans != nil {
			s.Job(SpanJob(e.Label(), e.Spans))
		}
	}
	return s.Close()
}
