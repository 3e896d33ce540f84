package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/serve"
	"a64fxbench/internal/sweep/golden"
)

// update rewrites the observed-output digest file:
//
//	go test ./cmd/a64fxbench -run TestObservedOutputs -update
var update = flag.Bool("update", false, "rewrite testdata/observed.txt with freshly computed digests")

// observedPath pins the bytes of every output built from a run's event
// stream rather than from its artifact.
var observedPath = filepath.Join("testdata", "observed.txt")

// TestObservedOutputs pins the SHA-256 of each observed output — trace
// exports, link heatmaps, counter reports, the run command's -profile
// summaries and the profile command's kernel-class breakdowns — so a
// change to how runs are observed cannot silently change what users
// read. If a change is intended, regenerate with -update and review the
// digest diff.
func TestObservedOutputs(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	writeCounters := func(ctx context.Context, w io.Writer, req core.Request) error {
		return serve.WriteCounters(ctx, w, req, 2)
	}
	viaRequest := func(ids []string, format string, write func(context.Context, io.Writer, core.Request) error) func(io.Writer) error {
		return func(w io.Writer) error {
			req, err := sweepConfig{quick: true, format: format}.request(ids)
			if err != nil {
				return err
			}
			return write(ctx, w, req)
		}
	}
	traceIDs := []string{"table5"}
	linkIDs := []string{"hpcg-weak"}
	counterIDs := []string{"table3", "table5", "table3"}
	cases := map[string]func(io.Writer) error{
		"trace-text":    viaRequest(traceIDs, "text", serve.WriteTrace),
		"trace-chrome":  viaRequest(traceIDs, "chrome", serve.WriteTrace),
		"trace-json":    viaRequest(traceIDs, "json", serve.WriteTrace),
		"links-text":    viaRequest(linkIDs, "text", serve.WriteLinks),
		"links-json":    viaRequest(linkIDs, "json", serve.WriteLinks),
		"counters-text": viaRequest(counterIDs, "text", writeCounters),
		"counters-json": viaRequest(counterIDs, "json", writeCounters),
		"counters-csv":  viaRequest(counterIDs, "csv", writeCounters),
		"run-profile": func(w io.Writer) error {
			return runSweep(ctx, w, io.Discard, []string{"table5", "table3"},
				sweepConfig{quick: true, jobs: 2, profile: true})
		},
	}
	for _, bench := range []string{"hpcg", "minikab", "nekbone", "cosa", "castep", "opensbli"} {
		cases["profile-"+bench] = func(w io.Writer) error { return profileCmd(w, bench, "A64FX") }
	}

	got := golden.Manifest{}
	var mu sync.Mutex
	t.Run("outputs", func(t *testing.T) {
		for name, write := range cases {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				if err := write(&buf); err != nil {
					t.Fatal(err)
				}
				if buf.Len() == 0 {
					t.Fatal("empty output")
				}
				mu.Lock()
				got[name] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	if *update {
		var b strings.Builder
		b.WriteString("# SHA-256 of each observed output. Regenerate with:\n")
		b.WriteString("#   go test ./cmd/a64fxbench -run TestObservedOutputs -update\n")
		for _, name := range got.IDs() {
			fmt.Fprintf(&b, "%s  %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(observedPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(observedPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d observed-output digests to %s", len(got), observedPath)
		return
	}
	want, err := golden.Load(observedPath)
	if err != nil {
		t.Fatalf("loading %s (run with -update to create it): %v", observedPath, err)
	}
	for _, line := range golden.Diff(got, want) {
		t.Error(line)
	}
}
