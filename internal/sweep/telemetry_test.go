package sweep

import (
	"context"
	"strings"
	"testing"

	"a64fxbench/internal/core"
	"a64fxbench/internal/telemetry"
)

// A telemetry-carrying sweep must produce artifacts byte-identical to a
// bare one: spans are observability, never part of the result.
func TestTelemetryIsResultNeutral(t *testing.T) {
	t.Parallel()
	const id = "table3"
	bare := New(1).Run(context.Background(), []string{id}, core.Options{Quick: true})
	if bare[0].Err != nil {
		t.Fatalf("bare run: %v", bare[0].Err)
	}

	tr := telemetry.NewTrace("request")
	ctx := telemetry.ContextWithSpan(context.Background(), tr.Root())
	traced := New(1).Run(ctx, []string{id}, core.Options{Quick: true})
	if traced[0].Err != nil {
		t.Fatalf("traced run: %v", traced[0].Err)
	}
	tr.Finish()

	if got, want := traced[0].Artifact.Render(), bare[0].Artifact.Render(); got != want {
		t.Fatalf("telemetry changed the artifact:\n--- bare ---\n%s\n--- traced ---\n%s", want, got)
	}
}

// A served sweep's span tree holds one artifact span per id, with the
// simulated jobs' phase spans (and virtual makespan) nested inside.
func TestSweepSpanTree(t *testing.T) {
	t.Parallel()
	tr := telemetry.NewTrace("request")
	ctx := telemetry.ContextWithSpan(context.Background(), tr.Root())
	res := New(1).Run(ctx, []string{"table3"}, core.Options{Quick: true})
	if res[0].Err != nil {
		t.Fatalf("run: %v", res[0].Err)
	}
	tr.Finish()
	root := tr.Tree()

	art := root.Find("artifact:table3")
	if art == nil {
		t.Fatalf("no artifact span in tree:\n%s", renderTree(root))
	}
	var job *telemetry.SpanNode
	for _, c := range art.Children {
		if strings.HasPrefix(c.Name, "job:") {
			job = c
			break
		}
	}
	if job == nil {
		t.Fatalf("artifact span has no job children:\n%s", renderTree(root))
	}
	for _, phase := range []string{"setup", "run-pass", "report"} {
		if job.Find(phase) == nil {
			t.Errorf("job span missing phase %q:\n%s", phase, renderTree(root))
		}
	}
	vm := job.Find("virtual-makespan")
	if vm == nil {
		t.Fatalf("job span missing virtual-makespan:\n%s", renderTree(root))
	}
	if vm.Clock != string(telemetry.ClockVirtual) {
		t.Fatalf("virtual-makespan clock = %q, want %q", vm.Clock, telemetry.ClockVirtual)
	}
	if vm.DurationNS <= 0 {
		t.Fatalf("virtual-makespan duration = %d, want > 0", vm.DurationNS)
	}
}

func renderTree(n *telemetry.SpanNode) string {
	var sb strings.Builder
	_ = telemetry.WriteTree(&sb, n)
	return sb.String()
}
