package sweep

import (
	"bytes"
	"context"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/sweep/golden"
)

// counterIDs is a small mixed set — single-node, multi-node and an
// extension — enough to exercise snapshot assembly without the full
// suite's runtime.
var counterIDs = []string{"table3", "fig2", "table3"}

// snapshotBytes runs CounterSnapshot at the given worker bound and
// returns the canonical JSON.
func snapshotBytes(t *testing.T, workers int) []byte {
	t.Helper()
	snap, _, err := CounterSnapshot(context.Background(), New(workers), counterIDs,
		core.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCounterSnapshotDeterministicAcrossWorkers is the sentinel's own
// determinism gate: -j1 and -j8 sweeps must serialize byte-identical
// snapshots (the regression diff gates on exact work counts, so any
// schedule dependence here would make CI flake).
func TestCounterSnapshotDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	seq := snapshotBytes(t, 1)
	if len(seq) == 0 {
		t.Fatal("empty snapshot")
	}
	par := snapshotBytes(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatal("-j1 and -j8 counter snapshots differ")
	}
	// And the snapshot is self-diff clean.
	snap, err := metrics.ReadSnapshot(bytes.NewReader(seq))
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := metrics.ReadSnapshot(bytes.NewReader(par))
	if err != nil {
		t.Fatal(err)
	}
	if res := metrics.Diff(snap, snap2, metrics.DiffOptions{}); res.Failed() || res.Compared == 0 {
		t.Fatalf("self-diff not clean: %+v", res)
	}
}

// TestCountersArtifactNeutral pins Options.Counters as an observability
// field: the artifact of a counted run, executed with sinks attached,
// must be byte-identical to the uncounted (cached-path) one. Without a
// sink the counts have nowhere to go, so that run is a cache hit.
func TestCountersArtifactNeutral(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	eng := New(2)
	ids := []string{"table3", "fig2"}
	plain := eng.Run(ctx, ids, core.Options{Quick: true})
	opt := core.Options{Quick: true}
	opt.Counters = &metrics.Config{}
	counted := eng.Collect(ctx, ids, opt)
	for i, id := range ids {
		if plain[i].Err != nil || counted[i].Err != nil {
			t.Fatalf("%s: %v / %v", id, plain[i].Err, counted[i].Err)
		}
		if counted[i].Cached {
			t.Errorf("%s: counted run with a sink hit the cache — it must execute", id)
		}
		if !bytes.Equal(golden.Canonical(plain[i].Artifact), golden.Canonical(counted[i].Artifact)) {
			t.Errorf("%s: counters changed the artifact (digest %s vs %s)",
				id, golden.Digest(counted[i].Artifact), golden.Digest(plain[i].Artifact))
		}
	}
	for i, r := range eng.Run(ctx, ids, opt) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if !r.Cached || r.Artifact != plain[i].Artifact {
			t.Errorf("%s: Counters without a sink missed the cache", r.ID)
		}
	}
}
