// Package telemetry is the zero-dependency request-span layer of the
// serving stack: a span is a named, timed piece of work with a parent,
// attributes and a status, and a trace is the tree of spans one request
// produced. The serve daemon opens a root span per HTTP request (tagged
// with its X-Request-ID), the request path hangs child spans off it
// (decode, cache-lookup, singleflight-wait, admission, engine-execute,
// render), the sweep engine adds one span per artifact, and simmpi adds
// spans for each simulated job's setup/run/replay passes — so a slow
// request decomposes into exactly the stages the paper's methodology
// attributes time to.
//
// Spans are carried through context.Context and every API is nil-safe:
// with no trace in the context, StartSpan returns a nil *Span whose
// methods are no-ops, so instrumented code costs one context lookup when
// telemetry is off and never changes simulated results either way.
//
// Two clocks coexist. Serve-side spans run on the wall clock (times are
// nanoseconds since the trace root started). Spans recorded inside the
// simulator may instead carry virtual time (Clock = "virtual"), so a
// span tree can show both how long the host worked and how long the
// simulated machine ran.
package telemetry

import (
	"context"
	"sync"
	"time"
)

// Clock labels the timebase of a span.
type Clock string

// The span timebases.
const (
	// ClockWall is host wall-clock time, relative to the trace root's
	// start. The zero Clock value means wall.
	ClockWall Clock = "wall"
	// ClockVirtual is simulated virtual time (vclock nanoseconds).
	ClockVirtual Clock = "virtual"
)

// maxSpans bounds one trace's span count so a runaway sweep (or an
// adversarial request) cannot grow a trace without limit; children past
// the cap are counted in the root's "dropped_spans" attribute instead
// of being retained.
const maxSpans = 4096

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Trace owns one request's span tree. All methods are safe for
// concurrent use: the sweep engine ends artifact spans from worker
// goroutines while the serving layer reads the tree.
type Trace struct {
	mu      sync.Mutex
	root    *Span
	spans   int
	dropped int
	now     func() int64 // wall nanoseconds; injectable in tests
	base    int64        // wall nanoseconds at root start
}

// NewTrace starts a trace: the root span begins now.
func NewTrace(rootName string) *Trace {
	return newTraceAt(rootName, func() int64 { return time.Now().UnixNano() })
}

// newTraceAt is NewTrace with an injectable clock (tests).
func newTraceAt(rootName string, now func() int64) *Trace {
	t := &Trace{now: now}
	t.base = now()
	t.root = &Span{tr: t, name: rootName, clock: ClockWall, start: 0}
	t.spans = 1
	return t
}

// Root returns the root span. Nil-safe (returns nil).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span (and with it the trace's end-to-end
// duration). Child spans still running keep recording — the tree is
// re-snapshot on every Tree call. Nil-safe.
func (t *Trace) Finish() { t.Root().End() }

// Span is one node of a trace: a named, timed piece of work. The zero
// of use is the nil *Span — every method is a no-op on it — so
// instrumented code never branches on "is telemetry on".
type Span struct {
	tr       *Trace
	name     string
	clock    Clock
	start    int64 // ns in the span's clock (wall: relative to trace base)
	end      int64 // 0 while running
	ended    bool
	attrs    []Attr
	errMsg   string
	children []*Span
}

// newChild allocates a child under the trace lock; returns nil when the
// trace is at its span cap.
func (t *Trace) newChild(parent *Span, name string, clock Clock, start, end int64, ended bool) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans >= maxSpans {
		t.dropped++
		return nil
	}
	t.spans++
	c := &Span{tr: t, name: name, clock: clock, start: start, end: end, ended: ended}
	parent.children = append(parent.children, c)
	return c
}

// Child opens a wall-clock child span starting now. Nil-safe: a nil
// receiver returns nil, so span trees prune themselves when telemetry
// is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newChild(s, name, ClockWall, s.tr.now()-s.tr.base, 0, false)
}

// Record attaches an already-completed child span with explicit times
// in the given clock — how the simulator reports virtual-time phases
// (start and dur are virtual nanoseconds) without telemetry owning the
// virtual clock. Nil-safe.
func (s *Span) Record(name string, clock Clock, start, dur int64, attrs ...Attr) {
	if s == nil {
		return
	}
	c := s.tr.newChild(s, name, clock, start, start+dur, true)
	if c != nil && len(attrs) > 0 {
		s.tr.mu.Lock()
		c.attrs = append(c.attrs, attrs...)
		s.tr.mu.Unlock()
	}
}

// End closes the span at the current wall clock. Ending twice keeps the
// first end time. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.end = s.tr.now() - s.tr.base
	}
}

// SetAttr annotates the span. Setting a key again overwrites the
// previous value. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Fail marks the span errored with the error's message. A nil error or
// receiver is a no-op.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.tr.mu.Lock()
	s.errMsg = err.Error()
	s.tr.mu.Unlock()
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying span as the active parent
// for StartSpan. A nil span yields ctx unchanged.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, span)
}

// SpanFrom returns the context's active span, or nil when the request
// is not being traced.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's active span and returns a
// context with the child active. With no span in ctx (telemetry off)
// it returns ctx and a nil span — the no-op fast path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Child(name)
	return ContextWithSpan(ctx, child), child
}

// SpanNode is the exported, immutable snapshot of one span — what the
// flight recorder retains, /v1/debug/slow serves, and the renderers
// consume.
type SpanNode struct {
	Name string `json:"name"`
	// Clock is omitted for wall-clock spans and "virtual" for spans on
	// the simulated clock.
	Clock string `json:"clock,omitempty"`
	// StartNS is nanoseconds since the trace root started (wall spans)
	// or virtual nanoseconds (virtual spans).
	StartNS int64 `json:"start_ns"`
	// DurationNS is the span length in its clock. A span still running
	// when the tree was snapshot reports the duration so far and
	// Unfinished true.
	DurationNS int64          `json:"duration_ns"`
	Unfinished bool           `json:"unfinished,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Error      string         `json:"error,omitempty"`
	Children   []*SpanNode    `json:"children,omitempty"`
}

// Tree snapshots the trace's span tree. Safe to call while spans are
// still being recorded (e.g. a singleflight leader detached from a
// hung-up client); spans added later appear in later snapshots.
// Nil-safe (returns nil).
func (t *Trace) Tree() *SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now() - t.base
	root := t.root.snapshot(now)
	if t.dropped > 0 {
		if root.Attrs == nil {
			root.Attrs = map[string]any{}
		}
		root.Attrs["dropped_spans"] = t.dropped
	}
	return root
}

// snapshot converts the span subtree; the caller holds the trace lock.
func (s *Span) snapshot(now int64) *SpanNode {
	n := &SpanNode{Name: s.name, StartNS: s.start, Error: s.errMsg}
	if s.clock == ClockVirtual {
		n.Clock = string(ClockVirtual)
	}
	if s.ended {
		n.DurationNS = s.end - s.start
	} else {
		n.Unfinished = true
		if d := now - s.start; s.clock != ClockVirtual && d > 0 {
			n.DurationNS = d
		}
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		n.Children = append(n.Children, c.snapshot(now))
	}
	return n
}

// Stages flattens the node's direct wall-clock children into a
// stage-name → duration map — the per-stage breakdown the request log
// and the stage histograms consume. Duplicate stage names sum.
func (n *SpanNode) Stages() map[string]time.Duration {
	if n == nil || len(n.Children) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(n.Children))
	for _, c := range n.Children {
		if c.Clock == string(ClockVirtual) {
			continue
		}
		out[c.Name] += time.Duration(c.DurationNS)
	}
	return out
}

// Find returns the first descendant (depth-first, self included) with
// the given name, or nil.
func (n *SpanNode) Find(name string) *SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}
