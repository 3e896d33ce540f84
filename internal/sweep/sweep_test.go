package sweep

import (
	"context"
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

// countCalls counts executions of the ext-test-count experiment.
var countCalls atomic.Int32

// registerTestExtension registers e once per test binary.
func registerTestExtension(t *testing.T, e *core.Experiment) {
	t.Helper()
	if _, err := core.GetExtension(e.ID); err == nil {
		return
	}
	if err := core.RegisterExtension(e); err != nil {
		t.Fatal(err)
	}
}

func TestRunReturnsInputOrder(t *testing.T) {
	t.Parallel()
	const id = "ext-test-count"
	registerTestExtension(t, &core.Experiment{
		ID: id, Title: "counts its calls", Kind: core.Table,
		Run: func(core.Options) (*core.Artifact, error) {
			countCalls.Add(1)
			return &core.Artifact{ID: id, Title: "counts its calls", Kind: core.Table}, nil
		},
	})
	before := countCalls.Load()
	ids := []string{"table1", id, "table2", id}
	results := New(4).Run(context.Background(), ids, core.Options{Quick: true})
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
	// The repeated id runs once, and both positions get its artifact.
	if got := countCalls.Load() - before; got != 1 {
		t.Errorf("a repeated id ran %d times, want 1", got)
	}
	if results[1].Artifact != results[3].Artifact {
		t.Error("the positions of a repeated id got different artifacts")
	}
	if results[3].Elapsed != 0 {
		t.Errorf("the repeat reports %v of execution, want 0", results[3].Elapsed)
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

func TestPanicBecomesError(t *testing.T) {
	// Registered once for the whole package; not parallel with itself.
	const id = "ext-test-panic"
	registerTestExtension(t, &core.Experiment{
		ID: id, Title: "panics", Kind: core.Table,
		Run: func(core.Options) (*core.Artifact, error) { panic("boom") },
	})
	results := New(1).Run(context.Background(), []string{id}, core.Options{})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Fatalf("want panic converted to error, got %v", results[0].Err)
	}
}
