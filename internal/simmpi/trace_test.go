package simmpi

import (
	"bytes"
	"strings"
	"testing"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// jobEvents strips the EvJobBegin/EvJobEnd markers from a sink's stream,
// leaving the rank-recorded events.
func jobEvents(tl Timeline) Timeline {
	var out Timeline
	for _, e := range tl {
		if e.Kind != EvJobBegin && e.Kind != EvJobEnd {
			out = append(out, e)
		}
	}
	return out
}

func TestTraceTimeline(t *testing.T) {
	t.Parallel()
	sink := &MemorySink{}
	c := cfg(2, 2)
	c.Trace = sink
	c.Label = "trace-test"
	_, err := Run(c, func(r *Rank) error {
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
		if r.ID() == 0 {
			r.Send(1, 1, 8)
		} else {
			r.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stream bracketed by job markers.
	if len(sink.Events) < 2 || sink.Events[0].Kind != EvJobBegin ||
		sink.Events[len(sink.Events)-1].Kind != EvJobEnd {
		t.Fatalf("stream not bracketed by job markers: %+v", sink.Events)
	}
	if sink.Events[0].Name != "trace-test" {
		t.Errorf("job label = %q, want trace-test", sink.Events[0].Name)
	}
	tl := jobEvents(sink.Events)
	// 2 computes + 1 send + 1 recv.
	if len(tl) != 4 {
		t.Fatalf("timeline has %d events: %+v", len(tl), tl)
	}
	// Sorted by start time.
	for i := 1; i < len(tl); i++ {
		if tl[i].Start < tl[i-1].Start {
			t.Error("timeline not sorted")
		}
	}
	kinds := map[EventKind]int{}
	for _, e := range tl {
		kinds[e.Kind]++
		// Two ranks on two nodes: block placement puts rank r on node r.
		if e.Node != e.Rank {
			t.Errorf("rank %d event carries node %d", e.Rank, e.Node)
		}
	}
	if kinds[EvCompute] != 2 || kinds[EvSend] != 1 || kinds[EvRecv] != 1 {
		t.Errorf("kind counts: %v", kinds)
	}
	for _, e := range tl {
		switch e.Kind {
		case EvCompute:
			if e.Flops != units.MFlop {
				t.Errorf("compute event flops = %v, want %v", e.Flops, units.MFlop)
			}
		case EvSend, EvRecv:
			if e.Tag != 1 {
				t.Errorf("%s event tag = %d, want 1", e.Kind, e.Tag)
			}
		}
	}
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"compute", "send", "recv", "vecop"} {
		if !strings.Contains(out, needle) {
			t.Errorf("trace output missing %q:\n%s", needle, out)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	t.Parallel()
	rep, err := Run(cfg(2, 1), func(r *Rank) error {
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
		// Region annotations must be free no-ops when tracing is off.
		r.Region("phase")
		r.EndRegion()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("degenerate untraced run")
	}
}

func TestTraceNoise(t *testing.T) {
	t.Parallel()
	sink := &MemorySink{}
	c := cfg(1, 1)
	c.Trace = sink
	c.NoiseProb = 1.0
	c.NoiseDuration = units.Second
	_, err := Run(c, func(r *Rank) error {
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range sink.Events {
		if e.Kind == EvNoise && e.Duration == units.Second {
			found = true
		}
	}
	if !found {
		t.Error("noise event not traced")
	}
}

func TestRegions(t *testing.T) {
	t.Parallel()
	sink := &MemorySink{}
	c := cfg(2, 1)
	c.Trace = sink
	_, err := Run(c, func(r *Rank) error {
		r.Region("outer")
		r.Region("inner")
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
		r.EndRegion()
		r.Compute(perfmodel.WorkProfile{Class: perfmodel.DotProduct, Flops: units.MFlop})
		r.EndRegion()
		r.Region("dangling") // closed automatically at job end
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	type rkey struct {
		rank int
		kind EventKind
		name string
	}
	counts := map[rkey]int{}
	var innerSpan, outerSpan units.Duration
	for _, e := range sink.Events {
		switch e.Kind {
		case EvRegionBegin, EvRegionEnd:
			counts[rkey{e.Rank, e.Kind, e.Name}]++
			if e.Rank == 0 && e.Kind == EvRegionEnd {
				switch e.Name {
				case "inner":
					innerSpan = e.Duration
				case "outer":
					outerSpan = e.Duration
				}
			}
		}
	}
	for rank := 0; rank < 2; rank++ {
		for _, name := range []string{"outer", "inner", "dangling"} {
			if counts[rkey{rank, EvRegionBegin, name}] != 1 {
				t.Errorf("rank %d: region %q begins = %d, want 1",
					rank, name, counts[rkey{rank, EvRegionBegin, name}])
			}
			if counts[rkey{rank, EvRegionEnd, name}] != 1 {
				t.Errorf("rank %d: region %q ends = %d, want 1",
					rank, name, counts[rkey{rank, EvRegionEnd, name}])
			}
		}
	}
	if innerSpan <= 0 || outerSpan < innerSpan {
		t.Errorf("region spans inconsistent: inner %v, outer %v", innerSpan, outerSpan)
	}
}

func TestEndRegionUnmatchedPanics(t *testing.T) {
	t.Parallel()
	c := cfg(1, 1)
	c.Trace = &MemorySink{}
	_, err := Run(c, func(r *Rank) error {
		r.EndRegion()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "EndRegion") {
		t.Fatalf("unmatched EndRegion should surface as a panic error, got %v", err)
	}
}

func TestMultipleJobsOneSink(t *testing.T) {
	t.Parallel()
	sink := &MemorySink{}
	for i := 0; i < 2; i++ {
		c := cfg(1, 1)
		c.Trace = sink
		if _, err := Run(c, func(r *Rank) error {
			r.Compute(perfmodel.WorkProfile{Class: perfmodel.VectorOp, Flops: units.MFlop})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	begins, ends := 0, 0
	for _, e := range sink.Events {
		switch e.Kind {
		case EvJobBegin:
			begins++
		case EvJobEnd:
			ends++
		}
	}
	if begins != 2 || ends != 2 {
		t.Errorf("want 2 job begin/end pairs, got %d/%d", begins, ends)
	}
	// Default label names the rank count.
	if sink.Events[0].Name != "job p=1" {
		t.Errorf("default label = %q", sink.Events[0].Name)
	}
}

func TestEventKindString(t *testing.T) {
	t.Parallel()
	if EvCompute.String() != "compute" || EventKind(99).String() != "event(99)" {
		t.Error("EventKind names wrong")
	}
	for _, k := range []EventKind{EvSend, EvRecv, EvNoise, EvRegionBegin, EvRegionEnd, EvJobBegin, EvJobEnd} {
		if strings.HasPrefix(k.String(), "event(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}
