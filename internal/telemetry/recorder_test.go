package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

func entry(id string, status int, ms float64) *Entry {
	return &Entry{RequestID: id, Op: "/v1/run", Status: status, DurationMS: ms}
}

func TestRecorderKeepsSlowest(t *testing.T) {
	t.Parallel()
	r := NewRecorder(3, 4)
	for i := 1; i <= 10; i++ {
		r.Observe(entry(fmt.Sprintf("r%d", i), 200, float64(i)))
	}
	snap := r.Snapshot()
	if snap.Total != 10 {
		t.Fatalf("Total = %d, want 10", snap.Total)
	}
	if len(snap.Slowest) != 3 {
		t.Fatalf("retained %d slow entries, want 3", len(snap.Slowest))
	}
	want := []float64{10, 9, 8}
	for i, e := range snap.Slowest {
		if e.DurationMS != want[i] {
			t.Fatalf("slowest[%d] = %.0fms, want %.0f", i, e.DurationMS, want[i])
		}
	}
	// A fast request does not displace a slower one.
	r.Observe(entry("fast", 200, 0.1))
	if got := len(r.Snapshot().Slowest); got != 3 {
		t.Fatalf("fast request changed the slow set size to %d", got)
	}
	for _, e := range r.Snapshot().Slowest {
		if e.RequestID == "fast" {
			t.Fatal("fast request displaced a slower one")
		}
	}
}

func TestRecorderErroredRing(t *testing.T) {
	t.Parallel()
	r := NewRecorder(2, 3)
	for i := 1; i <= 5; i++ {
		r.Observe(entry(fmt.Sprintf("e%d", i), 500, 1))
	}
	snap := r.Snapshot()
	if len(snap.Errored) != 3 {
		t.Fatalf("errored ring holds %d, want 3", len(snap.Errored))
	}
	// Newest first: e5, e4, e3.
	for i, want := range []string{"e5", "e4", "e3"} {
		if snap.Errored[i].RequestID != want {
			t.Fatalf("errored[%d] = %s, want %s", i, snap.Errored[i].RequestID, want)
		}
	}
	if len(snap.Slowest) != 0 {
		t.Fatal("errored requests must not enter the slow set")
	}
}

func TestRecorderPartialErroredRing(t *testing.T) {
	t.Parallel()
	r := NewRecorder(2, 8)
	r.Observe(entry("a", 400, 1))
	r.Observe(entry("b", 499, 1))
	snap := r.Snapshot()
	if len(snap.Errored) != 2 || snap.Errored[0].RequestID != "b" || snap.Errored[1].RequestID != "a" {
		t.Fatalf("partial ring order = %+v", snap.Errored)
	}
}

func TestRecorderDefaultsAndNil(t *testing.T) {
	t.Parallel()
	r := NewRecorder(0, 0)
	if r.slowCap != 32 || r.errCap != 64 {
		t.Fatalf("defaults = %d/%d, want 32/64", r.slowCap, r.errCap)
	}
	r.Observe(nil)
	var nilRec *Recorder
	nilRec.Observe(entry("x", 200, 1)) // must not panic
	if got := r.Snapshot().Total; got != 0 {
		t.Fatalf("nil entry counted: %d", got)
	}
}

func TestEntryWriteText(t *testing.T) {
	t.Parallel()
	tr := NewTrace("request")
	tr.Root().Child("decode").End()
	tr.Finish()
	e := &Entry{RequestID: "req-9", Op: "/v1/run", Status: 200, Cache: "miss",
		DurationMS: 1.5, Digest: "abcdef0123456789", Spans: tr.Tree()}
	var sb strings.Builder
	if err := e.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"req-9", "/v1/run", "status 200", "cache miss", "abcdef012345", "decode"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text entry missing %q:\n%s", want, out)
		}
	}
}
