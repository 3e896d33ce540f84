package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (catapult "JSON Array Format", as loaded by Perfetto and
// chrome://tracing). Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// micros converts virtual nanoseconds to trace microseconds.
func micros[T ~int64](d T) float64 { return float64(d) / 1e3 }

// ChromeSink streams jobs as one Chrome trace-event JSON document: one
// process (pid) per job, in the order the jobs arrive, labelled with the
// job name, one thread (tid) track per rank, compute/send/recv/noise as
// complete ("X") slices, Region annotations as nested "B"/"E" slices,
// and link utilization and PMU counters as counter ("C") tracks. Load
// the file at https://ui.perfetto.dev or chrome://tracing.
//
// Output is byte-deterministic for a given sequence of jobs: events are
// emitted in each timeline's (Start, Rank) order and all maps have
// sorted keys.
type ChromeSink struct {
	w    io.Writer
	jobs int
	n    int    // events written
	buf  []byte // one event's bytes, reused
	err  error
}

// NewChromeSink returns a sink writing the trace document to w.
func NewChromeSink(w io.Writer) *ChromeSink { return &ChromeSink{w: w} }

// Job writes one job's process. The first write error sticks: later
// jobs write nothing, and Close returns it.
func (s *ChromeSink) Job(job *simmpi.Report) {
	pid := s.jobs
	s.jobs++
	label := job.Label
	if label == "" {
		label = fmt.Sprintf("job %d", pid)
	}
	s.emit(chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": label},
	})
	for rank := range job.Ranks {
		s.emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
		})
		s.emit(chromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: rank,
			Args: map[string]any{"sort_index": rank},
		})
	}
	for _, e := range job.Events {
		s.emit(chromeEventFor(e, pid))
	}
	if links := job.Links; links != nil {
		// Counter track per link: Perfetto renders these as a stacked
		// area chart of utilization over time.
		for _, ls := range links.Links {
			for b, u := range ls.Series {
				if u > 0 {
					s.emit(chromeEvent{
						Name: "link " + ls.Name, Cat: "link", Ph: "C",
						Ts:  micros(links.Start.Add(units.Duration(b) * links.BucketWidth)),
						Pid: pid, Args: map[string]any{"util": u},
					})
				}
			}
		}
	}
	// One Perfetto counter track per virtual PMU counter, fed by the
	// job-aggregate series.
	for _, p := range CounterPoints(job.Counters) {
		s.emit(chromeEvent{
			Name: "ctr " + p.ID.String(), Cat: "counter", Ph: "C",
			Ts: micros(p.At), Pid: pid, Args: map[string]any{"value": p.Value},
		})
	}
}

// emit writes one trace event, opening the document before the first.
func (s *ChromeSink) emit(ce chromeEvent) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(ce)
	if err != nil {
		s.err = err
		return
	}
	sep := ",\n"
	if s.n == 0 {
		sep = chromeOpen
	}
	s.n++
	s.buf = append(append(s.buf[:0], sep...), b...)
	_, s.err = s.w.Write(s.buf)
}

// chromeOpen starts the trace document.
const chromeOpen = "{\"traceEvents\": [\n"

// Close ends the document and returns the first write error.
func (s *ChromeSink) Close() error {
	if s.err == nil && s.n == 0 {
		_, s.err = io.WriteString(s.w, chromeOpen)
	}
	if s.err == nil {
		_, s.err = io.WriteString(s.w, "\n], \"displayTimeUnit\": \"ms\"}\n")
	}
	return s.err
}

// chromeEventFor maps one timeline event onto the trace-event format.
func chromeEventFor(e simmpi.Event, pid int) chromeEvent {
	ce := chromeEvent{Ph: "X", Ts: micros(e.Start), Pid: pid, Tid: e.Rank}
	dur := micros(e.Duration)
	ce.Dur = &dur
	switch e.Kind {
	case simmpi.EvCompute:
		ce.Name = e.Class.String()
		ce.Cat = "compute"
		ce.Args = map[string]any{"flops": float64(e.Flops), "bytes": int64(e.Bytes)}
	case simmpi.EvSend:
		ce.Name = fmt.Sprintf("send → %d", e.Peer)
		ce.Cat = "comm"
		ce.Args = map[string]any{"peer": e.Peer, "tag": e.Tag, "bytes": int64(e.Bytes)}
	case simmpi.EvRecv:
		ce.Name = fmt.Sprintf("recv ← %d", e.Peer)
		ce.Cat = "comm"
		ce.Args = map[string]any{"peer": e.Peer, "tag": e.Tag, "bytes": int64(e.Bytes)}
	case simmpi.EvNoise:
		ce.Name = "os noise"
		ce.Cat = "noise"
	case simmpi.EvRegionBegin:
		return chromeEvent{
			Name: e.Name, Cat: "region", Ph: "B",
			Ts: micros(e.Start), Pid: pid, Tid: e.Rank,
		}
	case simmpi.EvRegionEnd:
		return chromeEvent{
			Name: e.Name, Cat: "region", Ph: "E",
			Ts: micros(e.Start), Pid: pid, Tid: e.Rank,
		}
	}
	return ce
}
