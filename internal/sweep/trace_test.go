package sweep

import (
	"bytes"
	"context"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/simmpi"
)

// tracedIDs is the cheap subset used by the trace determinism tests:
// enough jobs per experiment to exercise interleaving, small enough to
// trace in memory.
var tracedIDs = []string{"table3", "table5"}

// renderTimeline renders a collected timeline in the text format.
func renderTimeline(t *testing.T, tl simmpi.Timeline) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := tl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// runTraced collects tracedIDs on the given worker count and returns
// each id's rendered trace.
func runTraced(t *testing.T, workers int) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, r := range New(workers).Collect(context.Background(), tracedIDs, core.Options{Quick: true}) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if r.Cached {
			t.Fatalf("%s: traced run served from cache", r.ID)
		}
		out[r.ID] = renderTimeline(t, r.Timeline)
	}
	return out
}

// TestTracedSweepParallelDeterministic is the byte-identity gate: an
// 8-worker traced sweep must produce exactly the trace stream of a
// sequential one, per experiment.
func TestTracedSweepParallelDeterministic(t *testing.T) {
	seq := runTraced(t, 1)
	par := runTraced(t, 8)
	for _, id := range tracedIDs {
		if seq[id] == "" {
			t.Errorf("%s: empty sequential trace", id)
		}
		if seq[id] != par[id] {
			t.Errorf("%s: parallel trace differs from sequential (%d vs %d bytes)",
				id, len(par[id]), len(seq[id]))
		}
	}
}

// TestTraceBypassesCache checks the cache discipline around traced runs:
// a traced execution neither reads nor writes the cache, and the
// artifacts it produces are identical to the untraced ones.
func TestTraceBypassesCache(t *testing.T) {
	ctx := context.Background()
	id := "table5"
	opt := core.Options{Quick: true}
	eng := New(1)

	// Traced first, through Options.Trace: it must not fill the cache.
	traced := opt
	traced.Trace = &simmpi.MemorySink{}
	r1 := eng.Run(ctx, []string{id}, traced)[0]
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	r2 := eng.Run(ctx, []string{id}, opt)[0]
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r2.Cached {
		t.Error("a traced run wrote the cache")
	}

	// Traced again, through SinkFor, with the cache primed: it must
	// re-execute and observe events.
	sink := &simmpi.MemorySink{}
	eng.SinkFor = func(string) simmpi.TraceSink { return sink }
	r3 := eng.Run(ctx, []string{id}, opt)[0]
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if r3.Cached {
		t.Error("traced run was served from the cache")
	}
	if len(sink.Events) == 0 {
		t.Error("traced run recorded no events")
	}

	// Untraced again: still a cache hit (tracing didn't evict), and the
	// traced artifacts match the cached one (trace invariance).
	eng.SinkFor = nil
	r4 := eng.Run(ctx, []string{id}, opt)[0]
	if r4.Err != nil {
		t.Fatal(r4.Err)
	}
	if !r4.Cached {
		t.Error("untraced rerun missed the cache after a traced run")
	}
	for _, r := range []Result{r1, r3, r4} {
		if renderJSON(t, r.Artifact) != renderJSON(t, r2.Artifact) {
			t.Error("artifact changed across traced/untraced executions")
		}
	}
}

func renderJSON(t *testing.T, a *core.Artifact) string {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCollectTimelines checks the observed-run path: Collect runs each
// distinct id once with its own sink, returns the timelines in
// first-seen order, never touches the cache, honours FailFast, and
// leaves the artifacts unchanged.
func TestCollectTimelines(t *testing.T) {
	ctx := context.Background()
	opt := core.Options{Quick: true}
	eng := New(2)
	plain := eng.Run(ctx, []string{"table5"}, opt)[0]
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	if plain.Timeline != nil {
		t.Error("Run result carries a timeline")
	}

	got := eng.Collect(ctx, []string{"table5", "table3", "table5"}, opt)
	if len(got) != 2 || got[0].ID != "table5" || got[1].ID != "table3" {
		t.Fatalf("want one result per distinct id in first-seen order, got %d", len(got))
	}
	for _, r := range got {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(r.Timeline) == 0 {
			t.Errorf("%s: collected no events", r.ID)
		}
		if r.Cached {
			t.Errorf("%s: collected run was served from the cache", r.ID)
		}
	}
	if renderJSON(t, plain.Artifact) != renderJSON(t, got[0].Artifact) {
		t.Error("collecting changed the artifact")
	}
	// Each id's timeline is its own: collecting table5 alone yields the
	// same stream.
	alone := eng.Collect(ctx, []string{"table5"}, opt)[0]
	if renderTimeline(t, alone.Timeline) != renderTimeline(t, got[0].Timeline) {
		t.Error("table5's timeline depends on what it was collected with")
	}

	ff := New(1)
	ff.FailFast = true
	res := ff.Collect(ctx, []string{"nosuch", "table1"}, opt)
	if res[0].Err == nil || !res[1].Skipped() {
		t.Errorf("FailFast: want a failure then a skip, got %v / %v", res[0].Err, res[1].Err)
	}
}
