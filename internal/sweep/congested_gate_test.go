package sweep

import (
	"bytes"
	"context"
	"path/filepath"
	"sync"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sweep/golden"
)

// congestedIDs are the experiments whose workloads cross nodes and so
// actually exercise the routed contention model under Options.Congestion.
var congestedIDs = []string{"hpcg-weak", "table4", "ext-network", "fig2", "fig4"}

// congestedManifestPath pins the congested artifacts of congestedIDs,
// beside the contention-free manifest.txt and manifest-ecm.txt.
var congestedManifestPath = filepath.Join("testdata", "golden", "manifest-congested.txt")

// The congested sequential sweep, computed once and shared by the golden
// gate and the worker-count determinism gate.
var (
	congOnce sync.Once
	congArts map[string]*core.Artifact
	congErr  error
)

func congestedArtifacts(t *testing.T) map[string]*core.Artifact {
	t.Helper()
	congOnce.Do(func() {
		results := New(1).Run(context.Background(), congestedIDs,
			core.Options{Quick: true, Instrumentation: simmpi.Instrumentation{Congestion: true}})
		congArts = map[string]*core.Artifact{}
		for _, r := range results {
			if r.Err != nil {
				congErr = r.Err
				return
			}
			congArts[r.ID] = r.Artifact
		}
	})
	if congErr != nil {
		t.Fatalf("congested sequential sweep failed: %v", congErr)
	}
	return congArts
}

// TestGoldenDigestsCongested pins the congested artifacts to their
// checked-in digests, regenerated with the same -update flag as
// manifest.txt. A manifest-congested.txt diff answers "did the
// contention model's predictions move".
func TestGoldenDigestsCongested(t *testing.T) {
	t.Parallel()
	got := golden.Manifest{}
	for id, a := range congestedArtifacts(t) {
		got[id] = golden.Digest(a)
	}
	if *update {
		if err := got.Write(congestedManifestPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d congested golden digests to %s", len(got), congestedManifestPath)
		return
	}
	want, err := golden.Load(congestedManifestPath)
	if err != nil {
		t.Fatalf("loading congested golden manifest (run with -update to create it): %v", err)
	}
	for _, line := range golden.Diff(got, want) {
		t.Error(line)
	}
}

// TestCongestedSweepIsDeterministic is the determinism gate for the
// congestion path: a congested 8-worker sweep must produce artifacts
// byte-identical to a congested sequential one. The two-pass flow replay
// runs once per experiment invocation, so any divergence here means the
// max-min solve or the replay leaks goroutine-scheduling order.
func TestCongestedSweepIsDeterministic(t *testing.T) {
	t.Parallel()
	seq := congestedArtifacts(t)
	opt := core.Options{Quick: true, Instrumentation: simmpi.Instrumentation{Congestion: true}}
	par := New(8).Run(context.Background(), congestedIDs, opt)
	for _, r := range par {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if !bytes.Equal(golden.Canonical(r.Artifact), golden.Canonical(seq[r.ID])) {
			t.Errorf("%s: congested parallel artifact differs from sequential (digest %s vs %s)",
				r.ID, golden.Digest(r.Artifact), golden.Digest(seq[r.ID]))
		}
	}
}

// TestCongestionOptionKeysTheCache pins why Congestion must key every
// cache of results: it changes the multi-node table4 artifact, and it is
// part of the request digest that keys the serve daemon's responses.
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
	if bytes.Equal(golden.Canonical(free.Artifact), golden.Canonical(cong.Artifact)) {
		t.Error("congestion left the multi-node table4 artifact byte-identical")
	}
	req := core.Request{IDs: []string{"table4"}, Quick: true}
	congReq := req
	congReq.Congestion = true
	if req.Digest() == congReq.Digest() {
		t.Error("congestion does not change the request digest")
	}
}
