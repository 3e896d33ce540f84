package sweep

import (
	"bytes"
	"context"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sweep/golden"
)

// congestedIDs are the experiments whose workloads cross nodes and so
// actually exercise the routed contention model under Options.Congestion.
var congestedIDs = []string{"hpcg-weak", "table4", "ext-network"}

// TestCongestedSweepIsDeterministic is the determinism gate for the
// congestion path: a congested 8-worker sweep must produce artifacts
// byte-identical to a congested sequential one. The two-pass flow replay
// runs once per experiment invocation, so any divergence here means the
// max-min solve or the replay leaks goroutine-scheduling order.
func TestCongestedSweepIsDeterministic(t *testing.T) {
	t.Parallel()
	opt := core.Options{Quick: true, Instrumentation: simmpi.Instrumentation{Congestion: true}}
	seqEng := New(1)
	seq := seqEng.Run(context.Background(), congestedIDs, opt)
	parEng := New(8)
	par := parEng.Run(context.Background(), congestedIDs, opt)
	for i, r := range par {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if seq[i].Err != nil {
			t.Fatalf("%s (sequential): %v", seq[i].ID, seq[i].Err)
		}
		if !bytes.Equal(golden.Canonical(r.Artifact), golden.Canonical(seq[i].Artifact)) {
			t.Errorf("%s: congested parallel artifact differs from sequential (digest %s vs %s)",
				r.ID, golden.Digest(r.Artifact), golden.Digest(seq[i].Artifact))
		}
	}
}

// TestCongestionOptionKeysTheCache pins the cache-correctness contract:
// the same experiment run with and without Congestion must occupy
// distinct cache slots, and the congested run of a multi-node experiment
// must not silently reuse (or be reused by) the default-path artifact.
func TestCongestionOptionKeysTheCache(t *testing.T) {
	t.Parallel()
	eng := New(1)
	free := eng.Run(context.Background(), []string{"table4"}, core.Options{Quick: true})[0]
	if free.Err != nil {
		t.Fatal(free.Err)
	}
	cong := eng.Run(context.Background(), []string{"table4"}, core.Options{Quick: true, Instrumentation: simmpi.Instrumentation{Congestion: true}})[0]
	if cong.Err != nil {
		t.Fatal(cong.Err)
	}
	if cong.Cached {
		t.Error("congested run was served from the contention-free cache slot")
	}
	if bytes.Equal(golden.Canonical(free.Artifact), golden.Canonical(cong.Artifact)) {
		t.Error("congestion left the multi-node table4 artifact byte-identical")
	}
	// Same options again: now it may (and must) hit its own slot.
	again := eng.Run(context.Background(), []string{"table4"}, core.Options{Quick: true, Instrumentation: simmpi.Instrumentation{Congestion: true}})[0]
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if !again.Cached {
		t.Error("identical congested rerun missed the cache")
	}
	if !bytes.Equal(golden.Canonical(again.Artifact), golden.Canonical(cong.Artifact)) {
		t.Error("cached congested artifact differs from the original")
	}
}
