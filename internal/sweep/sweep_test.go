package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"a64fxbench/internal/core"
)

// allIDs lists every paper experiment and extension, excluding the
// throwaway ext-test-* experiments other tests register.
func allIDs() []string {
	var ids []string
	for _, e := range core.List() {
		ids = append(ids, e.ID)
	}
	for _, e := range core.Extensions() {
		if !strings.HasPrefix(e.ID, "ext-test-") {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// The full quick-mode sweep is the expensive fixture both the
// parallel-vs-sequential test and the golden gate need; compute it once.
var (
	seqOnce sync.Once
	seqArts map[string]*core.Artifact
	seqErr  error
)

func sequentialArtifacts(t *testing.T) map[string]*core.Artifact {
	t.Helper()
	seqOnce.Do(func() {
		eng := New(1)
		results := eng.Run(context.Background(), allIDs(), core.Options{Quick: true})
		seqArts = map[string]*core.Artifact{}
		for _, r := range results {
			if r.Err != nil {
				seqErr = r.Err
				return
			}
			seqArts[r.ID] = r.Artifact
		}
	})
	if seqErr != nil {
		t.Fatalf("sequential sweep failed: %v", seqErr)
	}
	return seqArts
}

func TestLookup(t *testing.T) {
	t.Parallel()
	if _, err := Lookup("table3"); err != nil {
		t.Fatalf("table3: %v", err)
	}
	if _, err := Lookup("ext-network"); err != nil {
		t.Fatalf("ext-network: %v", err)
	}
	if _, err := Lookup("nosuch"); err == nil {
		t.Fatal("want error for unknown id")
	}
}

func TestRunReturnsInputOrder(t *testing.T) {
	t.Parallel()
	eng := New(4)
	ids := []string{"table1", "table2", "table1"}
	results := eng.Run(context.Background(), ids, core.Options{Quick: true})
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Errorf("result %d: id %q, want %q", i, r.ID, ids[i])
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
		}
		if r.Artifact == nil {
			t.Errorf("%s: nil artifact", r.ID)
		}
	}
	// The duplicate id coalesces onto one execution.
	if !results[0].Cached && !results[2].Cached {
		t.Error("duplicate id should have hit the single-flight cache")
	}
}

func TestCachePersistsAcrossRuns(t *testing.T) {
	t.Parallel()
	eng := New(2)
	ctx := context.Background()
	first := eng.Run(ctx, []string{"table2"}, core.Options{Quick: true})
	if first[0].Err != nil {
		t.Fatal(first[0].Err)
	}
	if first[0].Cached {
		t.Error("first execution reported as cached")
	}
	second := eng.Run(ctx, []string{"table2"}, core.Options{Quick: true})
	if second[0].Err != nil {
		t.Fatal(second[0].Err)
	}
	if !second[0].Cached {
		t.Error("second execution should be a cache hit")
	}
	if second[0].Artifact != first[0].Artifact {
		t.Error("cache hit should return the same artifact")
	}
	// Different Options are a different cache key.
	third := eng.Run(ctx, []string{"table2"}, core.Options{Quick: false})
	if third[0].Err != nil {
		t.Fatal(third[0].Err)
	}
	if third[0].Cached {
		t.Error("different Options must not hit the Quick cache entry")
	}
}

func TestFailFastSkipsRemaining(t *testing.T) {
	t.Parallel()
	eng := New(1) // one worker makes the skip deterministic
	eng.FailFast = true
	results := eng.Run(context.Background(),
		[]string{"nosuch", "table1", "table2"}, core.Options{Quick: true})
	if results[0].Err == nil {
		t.Fatal("unknown id should fail")
	}
	if results[0].Skipped() {
		t.Error("the failing experiment itself is not a skip")
	}
	for _, r := range results[1:] {
		if !r.Skipped() {
			t.Errorf("%s: want skipped after fail-fast, got err=%v artifact=%v",
				r.ID, r.Err, r.Artifact != nil)
		}
	}
	sum := Summarize(results)
	if sum.Failed != 1 || sum.Skipped != 2 || sum.OK != 0 {
		t.Errorf("summary %+v, want 1 failed / 2 skipped", sum)
	}
	if FirstError(results) == nil {
		t.Error("FirstError should surface the lookup failure")
	}
	if !strings.Contains(sum.String(), "2 skipped") {
		t.Errorf("summary string %q should mention skips", sum)
	}
}

func TestWithoutFailFastAllRun(t *testing.T) {
	t.Parallel()
	eng := New(2)
	results := eng.Run(context.Background(),
		[]string{"table1", "nosuch", "table2"}, core.Options{Quick: true})
	sum := Summarize(results)
	if sum.OK != 2 || sum.Failed != 1 || sum.Skipped != 0 {
		t.Fatalf("summary %+v, want 2 ok / 1 failed / 0 skipped", sum)
	}
	if results[0].Artifact == nil || results[2].Artifact == nil {
		t.Error("experiments after a failure must still produce artifacts")
	}
}

func TestCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := New(2).Run(ctx, []string{"table1", "table2"}, core.Options{Quick: true})
	for _, r := range results {
		if !r.Skipped() {
			t.Errorf("%s: want skip under cancelled context, got %v", r.ID, r.Err)
		}
	}
}

func TestPerExperimentTiming(t *testing.T) {
	t.Parallel()
	results := New(1).Run(context.Background(), []string{"table3"}, core.Options{Quick: true})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Elapsed <= 0 {
		t.Error("want a positive per-experiment elapsed time")
	}
}

// flakyCalls counts executions of the ext-test-flaky experiment.
var flakyCalls atomic.Int32

// TestFailureIsNotCached: an experiment that fails once must run again
// on the next request instead of replaying the failure from the cache.
func TestFailureIsNotCached(t *testing.T) {
	const id = "ext-test-flaky"
	flakyCalls.Store(0)
	if _, err := core.GetExtension(id); err != nil {
		if err := core.RegisterExtension(&core.Experiment{
			ID: id, Title: "fails on its first call", Kind: core.Table,
			Run: func(core.Options) (*core.Artifact, error) {
				if flakyCalls.Add(1) == 1 {
					return nil, errors.New("transient failure")
				}
				return &core.Artifact{ID: id, Title: "fails on its first call", Kind: core.Table}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(1)
	ctx := context.Background()
	if first := eng.Run(ctx, []string{id}, core.Options{})[0]; first.Err == nil {
		t.Fatal("first call should fail")
	}
	second := eng.Run(ctx, []string{id}, core.Options{})[0]
	if second.Err != nil {
		t.Fatalf("second call replayed the failure: %v", second.Err)
	}
	if second.Cached {
		t.Error("second call must execute, not come from the cache")
	}
	if third := eng.Run(ctx, []string{id}, core.Options{})[0]; !third.Cached {
		t.Error("a success must still be cached")
	}
}

func TestPanicBecomesError(t *testing.T) {
	// Registered once for the whole package; not parallel with itself.
	const id = "ext-test-panic"
	if _, err := core.GetExtension(id); err != nil {
		if err := core.RegisterExtension(&core.Experiment{
			ID: id, Title: "panics", Kind: core.Table,
			Run: func(core.Options) (*core.Artifact, error) { panic("boom") },
		}); err != nil {
			t.Fatal(err)
		}
	}
	results := New(1).Run(context.Background(), []string{id}, core.Options{})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Fatalf("want panic converted to error, got %v", results[0].Err)
	}
}
