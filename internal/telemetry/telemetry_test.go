package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic wall clock for span tests.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) advance(d int64) {
	c.mu.Lock()
	c.ns += d
	c.mu.Unlock()
}

func TestSpanTreeShape(t *testing.T) {
	t.Parallel()
	clk := &fakeClock{ns: 1000}
	tr := newTraceAt("request", clk.now)

	clk.advance(10)
	decode := tr.Root().Child("decode")
	clk.advance(5)
	decode.End()

	flight := tr.Root().Child("singleflight-wait")
	exec := flight.Child("engine-execute")
	exec.SetAttr("id", "table3")
	clk.advance(100)
	exec.End()
	flight.End()
	tr.Finish()

	n := tr.Tree()
	if n.Name != "request" || n.DurationNS != 115 {
		t.Fatalf("root = %q dur %d, want request/115", n.Name, n.DurationNS)
	}
	if len(n.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(n.Children))
	}
	if n.Children[0].Name != "decode" || n.Children[0].StartNS != 10 || n.Children[0].DurationNS != 5 {
		t.Fatalf("decode node = %+v", n.Children[0])
	}
	ex := n.Find("engine-execute")
	if ex == nil || ex.DurationNS != 100 || ex.Attrs["id"] != "table3" {
		t.Fatalf("engine-execute node = %+v", ex)
	}
	// Ending twice keeps the first end.
	clk.advance(50)
	exec.End()
	if got := tr.Tree().Find("engine-execute").DurationNS; got != 100 {
		t.Fatalf("double End changed duration to %d", got)
	}
}

func TestNilSafety(t *testing.T) {
	t.Parallel()
	var s *Span
	s.End()
	s.SetAttr("k", 1)
	s.Fail(context.Canceled)
	s.Record("x", ClockVirtual, 0, 10)
	if c := s.Child("child"); c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	var tr *Trace
	tr.Finish()
	if tr.Tree() != nil || tr.Root() != nil {
		t.Fatal("nil trace accessors must be zero")
	}

	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "noop")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan without a trace must be a no-op")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("ContextWithSpan(nil) must return ctx unchanged")
	}
}

func TestContextPropagation(t *testing.T) {
	t.Parallel()
	tr := NewTrace("request")
	ctx := ContextWithSpan(context.Background(), tr.Root())
	ctx, a := StartSpan(ctx, "a")
	_, b := StartSpan(ctx, "b")
	b.End()
	a.End()
	tr.Finish()
	n := tr.Tree()
	if n.Find("a") == nil || n.Find("a").Children[0].Name != "b" {
		t.Fatalf("b must nest under a: %+v", n)
	}
}

func TestVirtualSpans(t *testing.T) {
	t.Parallel()
	tr := NewTrace("request")
	tr.Root().Record("virtual-makespan", ClockVirtual, 0, 2_500_000,
		Attr{Key: "ranks", Value: 48})
	tr.Finish()
	n := tr.Tree().Find("virtual-makespan")
	if n == nil || n.Clock != "virtual" || n.DurationNS != 2_500_000 || n.Attrs["ranks"] != 48 {
		t.Fatalf("virtual span = %+v", n)
	}
	// Virtual children are excluded from wall-stage maps.
	if st := tr.Tree().Stages(); len(st) != 0 {
		t.Fatalf("Stages included virtual spans: %v", st)
	}
}

func TestStages(t *testing.T) {
	t.Parallel()
	clk := &fakeClock{}
	tr := newTraceAt("request", clk.now)
	for _, stage := range []string{"decode", "cache-lookup", "singleflight-wait"} {
		s := tr.Root().Child(stage)
		clk.advance(1000)
		s.End()
	}
	// A duplicate stage name sums.
	s := tr.Root().Child("decode")
	clk.advance(500)
	s.End()
	tr.Finish()
	st := tr.Tree().Stages()
	if st["decode"] != 1500*time.Nanosecond {
		t.Fatalf("decode stage = %v, want 1500ns", st["decode"])
	}
	var sum time.Duration
	for _, d := range st {
		sum += d
	}
	if root := time.Duration(tr.Tree().DurationNS); sum != root {
		t.Fatalf("stages sum %v != root %v", sum, root)
	}
}

func TestSpanCap(t *testing.T) {
	t.Parallel()
	tr := NewTrace("request")
	for i := 0; i < maxSpans+10; i++ {
		tr.Root().Record("s", ClockWall, 0, 1)
	}
	tr.Finish()
	n := tr.Tree()
	if len(n.Children) != maxSpans-1 {
		t.Fatalf("retained %d children, want %d", len(n.Children), maxSpans-1)
	}
	if n.Attrs["dropped_spans"] != 11 {
		t.Fatalf("dropped_spans = %v, want 11", n.Attrs["dropped_spans"])
	}
}

func TestConcurrentSpans(t *testing.T) {
	t.Parallel()
	tr := NewTrace("request")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := tr.Root().Child("worker")
				s.SetAttr("j", j)
				s.End()
				_ = tr.Tree() // concurrent snapshot while spans mutate
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	if got := len(tr.Tree().Children); got != 16*50 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestUnfinishedSpanSnapshot(t *testing.T) {
	t.Parallel()
	clk := &fakeClock{}
	tr := newTraceAt("request", clk.now)
	s := tr.Root().Child("stuck")
	clk.advance(5000)
	n := tr.Tree().Find("stuck")
	if !n.Unfinished || n.DurationNS != 5000 {
		t.Fatalf("unfinished snapshot = %+v", n)
	}
	s.End()
}

func TestWriteTree(t *testing.T) {
	t.Parallel()
	clk := &fakeClock{}
	tr := newTraceAt("request", clk.now)
	a := tr.Root().Child("decode")
	clk.advance(2_000_000)
	a.End()
	b := tr.Root().Child("singleflight-wait")
	c := b.Child("engine-execute")
	c.Fail(context.DeadlineExceeded)
	clk.advance(1_000_000)
	c.End()
	b.End()
	tr.Finish()

	var sb strings.Builder
	if err := WriteTree(&sb, tr.Tree()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"request", "├─ decode", "└─ singleflight-wait",
		"└─ engine-execute", "error: context deadline exceeded", "2.000ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}
