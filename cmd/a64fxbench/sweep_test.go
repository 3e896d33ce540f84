package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// TestRunSweepPartialFailure is the regression test for the multi-id
// failure mode: one bad experiment in the list must not abort the rest —
// every other artifact still renders, the summary names the failure, and
// the returned error makes main exit non-zero.
func TestRunSweepPartialFailure(t *testing.T) {
	t.Parallel()
	var out, errw bytes.Buffer
	err := runSweep(context.Background(), &out, &errw,
		[]string{"table1", "nosuch", "table2"},
		sweepConfig{quick: true, jobs: 2})
	if err == nil {
		t.Fatal("a failed experiment must surface as a non-nil error (non-zero exit)")
	}
	for _, want := range []string{"TABLE1", "TABLE2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %s despite partial failure:\n%s", want, out.String())
		}
	}
	summary := errw.String()
	if !strings.Contains(summary, "2 ok, 1 failed") {
		t.Errorf("stderr missing partial-results summary:\n%s", summary)
	}
	if !strings.Contains(summary, "nosuch") {
		t.Errorf("stderr does not name the failed experiment:\n%s", summary)
	}
}

func TestRunSweepFailFast(t *testing.T) {
	t.Parallel()
	var out, errw bytes.Buffer
	err := runSweep(context.Background(), &out, &errw,
		[]string{"nosuch", "table1", "table2"},
		sweepConfig{quick: true, jobs: 1, failFast: true})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(errw.String(), "skipped") {
		t.Errorf("fail-fast should report skipped experiments:\n%s", errw.String())
	}
}

func TestRunSweepSuccess(t *testing.T) {
	t.Parallel()
	var out, errw bytes.Buffer
	if err := runSweep(context.Background(), &out, &errw,
		[]string{"table1"}, sweepConfig{quick: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TABLE1") {
		t.Errorf("missing artifact:\n%s", out.String())
	}
	// Single-experiment runs stay quiet on stderr, like the old CLI.
	if errw.Len() != 0 {
		t.Errorf("unexpected stderr for clean single run:\n%s", errw.String())
	}
}

func TestRunSweepFormats(t *testing.T) {
	t.Parallel()
	for _, format := range []string{"json", "csv", "chart"} {
		var out, errw bytes.Buffer
		if err := runSweep(context.Background(), &out, &errw,
			[]string{"table1"}, sweepConfig{quick: true, format: format}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s: empty output", format)
		}
	}
	err := runSweep(context.Background(), &bytes.Buffer{}, &bytes.Buffer{},
		[]string{"table1"}, sweepConfig{format: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("bad format should fail upfront, got %v", err)
	}
}

// TestMachineCommandsLiveUnderMachines: spec validation and calibration
// are reachable only as `machines validate` and `machines calibrate`.
func TestMachineCommandsLiveUnderMachines(t *testing.T) {
	t.Parallel()
	if findCommand("calibrate") != nil {
		t.Error("top-level calibrate still registered")
	}
	err := findCommand("validate").Run(context.Background(), sweepConfig{}, []string{"spec.json"})
	if err == nil || !strings.Contains(err.Error(), "machines validate") {
		t.Errorf("validate with arguments should point at machines validate, got %v", err)
	}
}

func TestRunSweepCancelled(t *testing.T) {
	t.Parallel()
	// A sweep interrupted before any experiment fails has only skipped
	// results; the error must still carry a real cause, not a nil %w.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errw bytes.Buffer
	err := runSweep(ctx, &out, &errw, []string{"table1", "table2"},
		sweepConfig{quick: true})
	if err == nil {
		t.Fatal("cancelled sweep should report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled, got %v", err)
	}
	if strings.Contains(err.Error(), "%!w") {
		t.Errorf("error wraps nil: %v", err)
	}
}
