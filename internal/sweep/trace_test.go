package sweep

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/obs"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sweep/golden"
)

// tracedIDs is the cheap subset used by the trace determinism tests:
// enough jobs per experiment to exercise interleaving, small enough to
// trace quickly.
var tracedIDs = []string{"table3", "table5"}

// observeText observes ids on eng and returns each result with its
// jobs rendered as the text timeline, indexed like the results.
func observeText(eng *Engine, ids []string, opt core.Options) ([]Result, []string) {
	bufs := make([]bytes.Buffer, len(ids))
	res := eng.Observe(context.Background(), ids, opt, func(i int, job *simmpi.Report) {
		obs.NewTextSink(&bufs[i]).Job(job)
	})
	texts := make([]string, len(res))
	for i := range res {
		texts[i] = bufs[i].String()
	}
	return res, texts
}

// runTraced observes tracedIDs on the given worker count and returns
// each id's rendered trace.
func runTraced(t *testing.T, workers int) map[string]string {
	t.Helper()
	out := map[string]string{}
	res, texts := observeText(New(workers), tracedIDs, core.Options{Quick: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		out[r.ID] = texts[i]
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

// TestTraceIsArtifactNeutral: a run traced through Options.Trace records
// events and produces the artifact an untraced run does, digest for
// digest.
func TestTraceIsArtifactNeutral(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	id := "table5"
	opt := core.Options{Quick: true}
	plain := New(1).Run(ctx, []string{id}, opt)[0]
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	events := 0
	traced := opt
	traced.Trace = func(job *simmpi.Report) { events += len(job.Events) }
	r := New(1).Run(ctx, []string{id}, traced)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if events == 0 {
		t.Error("traced run recorded no events")
	}
	if got, want := golden.Digest(r.Artifact), golden.Digest(plain.Artifact); got != want {
		t.Errorf("tracing changed the artifact: digest %s, untraced %s", got, want)
	}
}

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// TestObserveJobs checks the observed-run path: Observe runs each
// distinct id once, in first-seen order; hands one id's jobs over in
// order, from one goroutine; honours FailFast; and leaves the artifacts
// unchanged.
func TestObserveJobs(t *testing.T) {
	ctx := context.Background()
	opt := core.Options{Quick: true}
	eng := New(2)
	plain := eng.Run(ctx, []string{"table5"}, opt)[0]
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}

	ids := []string{"table5", "table3", "table5"}
	labels := make([][]string, len(ids))
	goids := make([]map[string]bool, len(ids))
	got := eng.Observe(ctx, ids, opt, func(i int, job *simmpi.Report) {
		if goids[i] == nil {
			goids[i] = map[string]bool{}
		}
		goids[i][goid()] = true
		if len(job.Events) == 0 {
			t.Errorf("%s: job %q carries no events", ids[i], job.Label)
		}
		labels[i] = append(labels[i], job.Label)
	})
	if len(got) != 2 || got[0].ID != "table5" || got[1].ID != "table3" {
		t.Fatalf("want one result per distinct id in first-seen order, got %d", len(got))
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(labels[i]) == 0 {
			t.Errorf("%s: observed no jobs", r.ID)
		}
		if len(goids[i]) != 1 {
			t.Errorf("%s: jobs handed over from %d goroutines", r.ID, len(goids[i]))
		}
	}
	if golden.Digest(plain.Artifact) != golden.Digest(got[0].Artifact) {
		t.Error("observing changed the artifact")
	}
	// Each id's jobs arrive in the order its own traced run makes them.
	var want []string
	traced := opt
	traced.Trace = func(job *simmpi.Report) { want = append(want, job.Label) }
	if r := New(1).Run(ctx, []string{"table5"}, traced)[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	if strings.Join(labels[0], "\n") != strings.Join(want, "\n") {
		t.Errorf("table5's jobs arrived as %q, want %q", labels[0], want)
	}

	ff := New(1)
	ff.FailFast = true
	res := ff.Observe(ctx, []string{"nosuch", "table1"}, opt, func(int, *simmpi.Report) {})
	if res[0].Err == nil || !res[1].Skipped() {
		t.Errorf("FailFast: want a failure then a skip, got %v / %v", res[0].Err, res[1].Err)
	}
}
