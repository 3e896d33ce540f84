package sweep

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/sweep/golden"
)

// update regenerates the golden digest manifest:
//
//	go test ./internal/sweep -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden with freshly computed digests")

// manifestPath is the checked-in golden digest set for the Quick-mode
// sweep. Quick exercises the same code paths with fewer simulated
// iterations; the full-size sweep takes 0.4–1.2 s at -j 1 on a shared
// 2-vCPU host, and CI pins its output in testdata/golden/fullsize.txt.
var manifestPath = filepath.Join("testdata", "golden", "manifest.txt")

// TestGoldenDigests pins every artifact of the full sweep — all paper
// tables/figures plus the extension ablations — to its checked-in
// SHA-256 digest. Any change to simulation results, artifact layout, or
// the canonical serialization trips this gate; if the change is
// intended, regenerate with -update and review the manifest diff.
func TestGoldenDigests(t *testing.T) {
	t.Parallel()
	arts := sequentialArtifacts(t)
	got := golden.Manifest{}
	for id, a := range arts {
		got[id] = golden.Digest(a)
	}
	if *update {
		if err := got.Write(manifestPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), manifestPath)
		return
	}
	want, err := golden.Load(manifestPath)
	if err != nil {
		t.Fatalf("loading golden manifest (run with -update to create it): %v", err)
	}
	for _, line := range golden.Diff(got, want) {
		t.Error(line)
	}
}

// TestParallelMatchesSequential is the determinism gate for the sweep
// engine itself: a maximally parallel sweep must produce artifacts
// byte-identical to the sequential one, for every experiment and
// extension. The simulation runs on virtual clocks, so any divergence
// here is a real scheduling-dependence bug.
func TestParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	seq := sequentialArtifacts(t)
	eng := New(8) // fresh engine: nothing shared with the fixture's cache
	results := eng.Run(context.Background(), allIDs(), core.Options{Quick: true})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		want, ok := seq[r.ID]
		if !ok {
			t.Fatalf("%s: no sequential counterpart", r.ID)
		}
		if !bytes.Equal(golden.Canonical(r.Artifact), golden.Canonical(want)) {
			t.Errorf("%s: parallel artifact differs from sequential (digest %s vs %s)",
				r.ID, golden.Digest(r.Artifact), golden.Digest(want))
		}
	}
	if len(results) != len(seq) {
		t.Errorf("parallel sweep produced %d artifacts, sequential %d", len(results), len(seq))
	}
}

// TestInlineSpecsStayInTheirRequest: an inline request spec is compiled
// for its request and registered nowhere, so a request whose machine
// borrows the name of an ablation's derived system cannot reach that
// ablation. The test is not parallel, so the requests normalize before
// any other test in the process runs ext-network or ext-stencil.
func TestInlineSpecsStayInTheirRequest(t *testing.T) {
	for _, name := range []string{"A64FX+Aries", "A64FX-goodstencil"} {
		body := fmt.Sprintf(`{"ids":["ext-machine"],"quick":true,"spec":{"base":"A64FX","name":%q,"node":{"domain_bandwidth":"50 GB/s"}}}`, name)
		if _, err := core.ParseRequest([]byte(body)); err != nil {
			t.Fatalf("inline spec %s: %v", name, err)
		}
	}
	want, err := golden.Load(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range New(1).Run(context.Background(), []string{"ext-network", "ext-stencil"}, core.Options{Quick: true}) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if got := golden.Digest(r.Artifact); got != want[r.ID] {
			t.Errorf("%s: digest %s after inline specs, golden %s", r.ID, got, want[r.ID])
		}
	}
}
