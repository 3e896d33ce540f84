package sweep

import (
	"bytes"
	"context"
	"path/filepath"
	"sync"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/sweep/golden"
)

// ecmManifestPath is the checked-in golden digest set for the ECM-mode
// sweep. It lives beside the stock roofline manifest.txt, which this
// file must never touch: the neutrality contract is that adding the ECM
// mode leaves every default-model digest byte-identical.
var ecmManifestPath = filepath.Join("testdata", "golden", "manifest-ecm.txt")

// ecmIDs is the model-sensitive subset the ECM golden gate pins:
// the compute-heavy paper tables whose phase times the pricing model
// directly sets. Config-only artifacts are deliberately absent — they
// render identically under every model.
func ecmIDs() []string {
	return []string{"table3", "table4", "table6", "fig3"}
}

// The ECM quick-mode sweep fixture, computed once and shared by the
// golden gate and the worker-count determinism gate.
var (
	ecmOnce sync.Once
	ecmArts map[string]*core.Artifact
	ecmErr  error
)

func ecmArtifacts(t *testing.T) map[string]*core.Artifact {
	t.Helper()
	ecmOnce.Do(func() {
		eng := New(1)
		results := eng.Run(context.Background(), ecmIDs(),
			core.Options{Quick: true, Instrumentation: simmpi.Instrumentation{Model: perfmodel.ModelECM}})
		ecmArts = map[string]*core.Artifact{}
		for _, r := range results {
			if r.Err != nil {
				ecmErr = r.Err
				return
			}
			ecmArts[r.ID] = r.Artifact
		}
	})
	if ecmErr != nil {
		t.Fatalf("ecm sweep failed: %v", ecmErr)
	}
	return ecmArts
}

// TestGoldenDigestsECM pins the ECM-mode artifacts to their checked-in
// digests — the ECM twin of TestGoldenDigests, regenerated with the
// same -update flag. Reviewing a manifest-ecm.txt diff answers "did the
// ECM model's predictions move", exactly as manifest.txt answers it for
// the roofline.
func TestGoldenDigestsECM(t *testing.T) {
	t.Parallel()
	arts := ecmArtifacts(t)
	got := golden.Manifest{}
	for id, a := range arts {
		got[id] = golden.Digest(a)
	}
	if *update {
		if err := got.Write(ecmManifestPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d ECM golden digests to %s", len(got), ecmManifestPath)
		return
	}
	want, err := golden.Load(ecmManifestPath)
	if err != nil {
		t.Fatalf("loading ECM golden manifest (run with -update to create it): %v", err)
	}
	for _, line := range golden.Diff(got, want) {
		t.Error(line)
	}
}

// TestECMDistinctFromRoofline proves the model option actually reaches
// the simulation: every pinned ECM artifact must differ from its
// roofline counterpart. A model knob that cached or digested into the
// roofline slot would silently disable the entire ECM suite.
func TestECMDistinctFromRoofline(t *testing.T) {
	t.Parallel()
	ecm := ecmArtifacts(t)
	roofline := sequentialArtifacts(t)
	for _, id := range ecmIDs() {
		e, r := ecm[id], roofline[id]
		if e == nil || r == nil {
			t.Fatalf("%s: missing artifact (ecm %v, roofline %v)", id, e != nil, r != nil)
		}
		if golden.Digest(e) == golden.Digest(r) {
			t.Errorf("%s: ECM artifact digest equals roofline digest %s — model option not applied",
				id, golden.Digest(r))
		}
	}
}

// TestECMParallelMatchesSequential is the worker-count determinism gate
// for the ECM mode: a j8 ECM sweep must produce artifacts byte-identical
// to the j1 fixture.
func TestECMParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	seq := ecmArtifacts(t)
	eng := New(8)
	results := eng.Run(context.Background(), ecmIDs(),
		core.Options{Quick: true, Instrumentation: simmpi.Instrumentation{Model: perfmodel.ModelECM}})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		want, ok := seq[r.ID]
		if !ok {
			t.Fatalf("%s: no sequential counterpart", r.ID)
		}
		if !bytes.Equal(golden.Canonical(r.Artifact), golden.Canonical(want)) {
			t.Errorf("%s: j8 ECM artifact differs from j1 (digest %s vs %s)",
				r.ID, golden.Digest(r.Artifact), golden.Digest(want))
		}
	}
	if len(results) != len(seq) {
		t.Errorf("j8 ECM sweep produced %d artifacts, j1 %d", len(results), len(seq))
	}
}
