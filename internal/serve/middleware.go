package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"a64fxbench/internal/telemetry"
)

// Request identity: every /v1 response carries an X-Request-ID so a
// client error report can be joined against the daemon's log line and
// flight-recorder entry. A client-supplied header is honored (gateways
// propagate their own ids); otherwise the id is a per-process random
// prefix plus an atomic counter — unique without coordination and cheap
// enough for the hot path.
var (
	reqCounter atomic.Uint64
	reqPrefix  = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

func newRequestID() string {
	return fmt.Sprintf("%s-%06d", reqPrefix, reqCounter.Add(1))
}

// statusWriter captures the status code a handler wrote so the
// middleware can log and record it after the fact.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// stageNames is the closed set of request-stage span names; the
// middleware folds exactly these into the per-stage histograms and the
// request log's stages object. Span names outside the set (artifact and
// job spans) stay in the span tree but are not stages.
var stageNames = []string{
	"decode", "cache-lookup", "singleflight-wait",
	"admission", "engine-execute", "render", "write",
}

// stageDurations walks a snapshot tree and sums the duration of every
// wall-clock span whose name is a stage name, wherever it nests (the
// leader's admission/engine-execute/render spans live under its
// singleflight-wait span).
func stageDurations(n *telemetry.SpanNode) map[string]time.Duration {
	out := make(map[string]time.Duration)
	var walk func(*telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		if n == nil || n.Clock == string(telemetry.ClockVirtual) {
			return
		}
		for _, st := range stageNames {
			if n.Name == st {
				out[st] += time.Duration(n.DurationNS)
				break
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// withTelemetry wraps the mux with the request-identity and tracing
// middleware: every /v1 response gets an X-Request-ID and each /v1
// request a root span whose children are the stage spans the handlers
// open. On completion the tree is folded into the stage histograms,
// offered to the flight recorder and emitted as one structured log
// line.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		tr := telemetry.NewTrace("request " + r.URL.Path)
		root := tr.Root()
		root.SetAttr("method", r.Method)
		next.ServeHTTP(sw, r.WithContext(telemetry.ContextWithSpan(r.Context(), root)))
		tr.Finish()

		tree := tr.Tree()
		status := sw.status()
		elapsed := time.Since(start)
		digest, _ := tree.Attrs["digest"].(string)
		cache, _ := tree.Attrs["cache"].(string)
		if cache == "" {
			cache = "none"
		}

		stages := stageDurations(tree)
		for st, d := range stages {
			s.met.ObserveStage(st, d)
		}
		s.rec.Observe(&telemetry.Entry{
			RequestID:  id,
			Op:         r.URL.Path,
			Digest:     digest,
			Status:     status,
			Cache:      cache,
			Start:      start,
			DurationMS: float64(elapsed) / float64(time.Millisecond),
			Counters:   s.met.CountersSnapshot(),
			Spans:      tree,
		})

		if s.logger != nil {
			stageAttrs := make([]any, 0, len(stageNames))
			for _, st := range stageNames {
				if d, ok := stages[st]; ok {
					stageAttrs = append(stageAttrs,
						slog.Float64(st, float64(d)/float64(time.Millisecond)))
				}
			}
			level := slog.LevelInfo
			if status >= 500 {
				level = slog.LevelError
			}
			s.logger.LogAttrs(r.Context(), level, "request",
				slog.String("request_id", id),
				slog.String("op", r.URL.Path),
				slog.String("method", r.Method),
				slog.Int("status", status),
				slog.String("cache", cache),
				slog.String("digest", digest),
				slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
				slog.Group("stages", stageAttrs...),
			)
		}
	})
}
