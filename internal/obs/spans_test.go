package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/telemetry"
)

func spanFixture() *telemetry.SpanNode {
	tr := telemetry.NewTrace("request /v1/run")
	root := tr.Root()
	dec := root.Child("decode")
	dec.End()
	wait := root.Child("singleflight-wait")
	exec := wait.Child("engine-execute")
	art := exec.Child("artifact:table3")
	art.Record("virtual-makespan", telemetry.ClockVirtual, 0, 5_000_000_000)
	art.End()
	exec.End()
	wait.End()
	tr.Finish()
	return tr.Tree()
}

func TestSpanJobRegionPairs(t *testing.T) {
	t.Parallel()
	jt := SpanJob("req-1 /v1/run", spanFixture())
	if jt.Label != "req-1 /v1/run" {
		t.Fatalf("label = %q", jt.Label)
	}
	// Every wall span contributes one begin and one end, properly
	// nested; the virtual span is excluded.
	depth := 0
	opens := map[string]int{}
	for _, e := range jt.Events {
		switch e.Kind {
		case simmpi.EvRegionBegin:
			depth++
			opens[e.Name]++
		case simmpi.EvRegionEnd:
			depth--
			if depth < 0 {
				t.Fatal("region end without matching begin")
			}
		default:
			t.Fatalf("unexpected event kind %v", e.Kind)
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced regions: depth %d at stream end", depth)
	}
	for _, name := range []string{"request /v1/run", "decode", "singleflight-wait", "engine-execute", "artifact:table3"} {
		if opens[name] != 1 {
			t.Errorf("span %q opened %d times, want 1", name, opens[name])
		}
	}
	if opens["virtual-makespan"] != 0 {
		t.Error("virtual span leaked into the wall timeline")
	}
	if len(jt.Ranks) != 1 {
		t.Fatalf("ranks = %d, want 1", len(jt.Ranks))
	}
}

func TestSpanJobNil(t *testing.T) {
	t.Parallel()
	jt := SpanJob("empty", nil)
	if len(jt.Events) != 0 || jt.Makespan != 0 {
		t.Fatalf("nil root produced %d events", len(jt.Events))
	}
}

func TestWriteSpanChrome(t *testing.T) {
	t.Parallel()
	entries := []*telemetry.Entry{
		{RequestID: "req-1", Op: "/v1/run", Status: 200, DurationMS: 3.5, Spans: spanFixture()},
		nil,                  // skipped
		{RequestID: "req-2"}, // no spans: skipped
	}
	var buf bytes.Buffer
	if err := WriteSpanChrome(&buf, entries); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	pids := map[float64]bool{}
	var sawDecode bool
	for _, ev := range doc.TraceEvents {
		pids[ev["pid"].(float64)] = true
		if ev["name"] == "decode" {
			sawDecode = true
		}
	}
	if len(pids) != 1 {
		t.Fatalf("expected 1 process, got %d", len(pids))
	}
	if !sawDecode {
		t.Fatal("decode span missing from chrome export")
	}
}
