package obs

import (
	"fmt"
	"io"

	"a64fxbench/internal/metrics"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// TextSink streams jobs as the flat text timeline, one line per entry
// in simmpi.WriteEvent's format. A job prints, in order: its "job" line
// at time 0, its events, each contended link's "link" line followed by
// its busy "linksample" buckets, each rank's nonzero "counter" values at
// the rank's finish, the "ctrsample" points of its counter series, and
// its "jobend" line at the makespan. Job-level lines carry rank -1.
type TextSink struct {
	w   io.Writer
	err error
}

// NewTextSink returns a sink writing the flat text timeline to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Job writes one job's lines; the first write error sticks and
// surfaces from Close.
func (s *TextSink) Job(job *simmpi.Report) {
	s.line(0, -1, "job", job.Label)
	for _, e := range job.Events {
		if s.err != nil {
			return
		}
		_, s.err = simmpi.WriteEvent(s.w, e)
	}
	if links := job.Links; links != nil {
		for _, ls := range links.Links {
			s.line(links.Start, -1, "link", fmt.Sprintf("%-22s busy %v util %3.0f%% flows %d peak %d %v",
				ls.Name, ls.Busy, 100*ls.Util, ls.Flows, ls.PeakFlows, ls.Bytes))
			for b, u := range ls.Series {
				if u > 0 {
					s.line(links.Start.Add(units.Duration(b)*links.BucketWidth), -1, "linksample",
						fmt.Sprintf("%-22s util %3.0f%%", ls.Name, 100*u))
				}
			}
		}
	}
	if jc := job.Counters; jc != nil {
		for _, rc := range jc.Ranks {
			for id, v := range rc.Values {
				if v != 0 {
					s.line(job.Ranks[rc.Rank].Finish, rc.Rank, "counter",
						fmt.Sprintf("%-22s %g", metrics.ID(id), v))
				}
			}
		}
	}
	for _, p := range CounterPoints(job.Counters) {
		s.line(vclock.Time(p.At), -1, "ctrsample", fmt.Sprintf("%-22s %g", p.ID, p.Value))
	}
	s.line(vclock.Time(job.Makespan), -1, "jobend",
		fmt.Sprintf("%s makespan %v", job.Label, job.Makespan))
}

// line writes one line in simmpi.WriteEvent's format.
func (s *TextSink) line(at vclock.Time, rank int, kind, desc string) {
	if s.err == nil {
		_, s.err = fmt.Fprintf(s.w, "%12.6fs rank %-4d %-8s %s\n", at.Seconds(), rank, kind, desc)
	}
}

// Close reports the first write error, if any.
func (s *TextSink) Close() error { return s.err }
