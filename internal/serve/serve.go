package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"time"

	"a64fxbench/internal/core"
	"a64fxbench/internal/spec"
	"a64fxbench/internal/sweep"
	"a64fxbench/internal/telemetry"
)

// StatusClientClosedRequest is the (nginx-convention) status recorded
// when the client hangs up before its execution starts; there is nobody
// left to read the body, but the code keeps the metrics honest.
const StatusClientClosedRequest = 499

// Config tunes the daemon.
type Config struct {
	// Workers bounds both the request executions allowed to run at once
	// and each execution's sweep workers (≤ 0 means GOMAXPROCS). Cache
	// hits and coalesced singleflight joins do not consume an execution.
	Workers int
	// QueueDepth is how many admitted executions may wait for a free
	// execution slot before new work is rejected with 429 (≤ 0 means 64).
	QueueDepth int
	// Logger, when non-nil, receives one structured line per /v1
	// request (request id, op, status, cache state, per-stage
	// durations). Nil disables request logging.
	Logger *slog.Logger
}

const (
	// slowRequests is how many of the slowest requests the flight
	// recorder retains for /v1/debug/slow.
	slowRequests = 32
	// erroredRequests is the flight recorder's ring size for requests
	// that finished with status ≥ 400.
	erroredRequests = 64
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// response is one materialized HTTP answer: what the cache stores and
// what a flight hands to each of its waiters.
type response struct {
	status      int
	contentType string
	retryAfter  int // seconds; 429 only
	body        []byte
}

// answer is what one execution produces: a response per format it was
// asked for. A run or sweep renders every format of its operation, so
// requests for the other formats of the same request become cache hits;
// trace, links and counters render the one format requested. A failure
// answers each format with the same response.
type answer map[string]*response

// Server is the sweep-as-a-service daemon: five POST /v1/* operation
// endpoints over core.Request, plus /v1/healthz and /metrics. Responses
// for identical normalized requests are served from a digest-keyed,
// byte-bounded cache; identical requests in flight are computed once
// (singleflight); executions beyond Workers queue up to QueueDepth deep
// and are rejected with 429 + Retry-After past that.
type Server struct {
	cfg    Config
	flight *flightGroup[answer]
	cache  *responseCache
	met    *Metrics
	rec    *telemetry.Recorder
	logger *slog.Logger
	mux    *http.ServeMux

	sem   chan struct{} // running executions, cap Workers
	slots chan struct{} // running + queued, cap Workers + QueueDepth
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		flight: newFlightGroup[answer](),
		cache:  newResponseCache(cacheBytes),
		met:    newMetrics(),
		rec:    telemetry.NewRecorder(slowRequests, erroredRequests),
		logger: cfg.Logger,
		mux:    http.NewServeMux(),
		sem:    make(chan struct{}, cfg.Workers),
		slots:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
	}
	s.met.queueCapacity = cfg.QueueDepth
	s.met.cacheSize = s.cache.size
	for _, op := range []string{"run", "sweep", "trace", "counters", "links"} {
		s.mux.HandleFunc("/v1/"+op, s.opHandler(op))
	}
	s.mux.HandleFunc("/v1/machines", s.handleMachines)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/debug/slow", s.handleDebugSlow)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler: the mux wrapped in the
// request-identity/telemetry middleware.
func (s *Server) Handler() http.Handler { return s.withTelemetry(s.mux) }

// Recorder exposes the slow-request flight recorder (tests).
func (s *Server) Recorder() *telemetry.Recorder { return s.rec }

// Metrics exposes the server's instrumentation (tests).
func (s *Server) Metrics() *Metrics { return s.met }

// opHandler wraps one operation endpoint with latency/status metrics.
func (s *Server) opHandler(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := s.serveOp(op, w, r)
		s.met.Observe("/v1/"+op, code, time.Since(start))
	}
}

// serveOp is the request path every operation endpoint shares:
// strict-decode → validate arity and format → response cache →
// singleflight → bounded-queue execution. Each stage runs under its own
// span (a child of the middleware's request root); stage names tile the
// request end to end — decode, cache-lookup, singleflight-wait, write —
// so their durations sum to the logged latency, with the leader's
// admission/engine-execute/render spans nested inside the wait.
func (s *Server) serveOp(op string, w http.ResponseWriter, r *http.Request) int {
	span := telemetry.SpanFrom(r.Context())
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("%s: use POST with a JSON request body", op))
	}
	dec := span.Child("decode")
	req, err := core.DecodeRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = checkArity(op, req)
	}
	if err == nil {
		err = CheckFormat(op, req.Format)
	}
	dec.Fail(err)
	dec.End()
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}

	digest := req.Digest()
	key := op + ":" + digest
	span.SetAttr("digest", digest)
	lookup := span.Child("cache-lookup")
	resp, ok := s.cache.get(key)
	lookup.End()
	if ok {
		s.met.CacheHit()
		span.SetAttr("cache", "hit")
		return s.writeResponseSpan(span, w, resp, "hit")
	}
	s.met.CacheMiss()

	formats, flight := []string{req.Format}, key
	if op == "run" || op == "sweep" {
		// One execution renders every format, so the flight is keyed by
		// the request without its format and each waiter takes its own.
		formats, flight = opFormats[op], cacheKey(op, req, "")
	}
	wait := span.Child("singleflight-wait")
	ans, shared, err := s.flight.Do(r.Context(), flight,
		func() (answer, bool) {
			resp, ok := s.cache.get(key)
			return answer{req.Format: resp}, ok
		},
		func(ctx context.Context) answer {
			// The leader runs detached from any one HTTP request; its
			// admission/execute/render spans nest under the initiating
			// request's wait span (safe even after that trace finished —
			// trees are snapshots and the trace is lock-protected).
			return s.execute(telemetry.ContextWithSpan(ctx, wait), op, req, formats)
		},
		func(ans answer) {
			for _, f := range formats {
				if resp := ans[f]; resp.status == http.StatusOK {
					s.cache.put(cacheKey(op, req, f), resp)
				}
			}
		})
	wait.End()
	if err != nil {
		// The client went away while waiting; nothing to write.
		wait.Fail(err)
		span.SetAttr("cache", "abandoned")
		return StatusClientClosedRequest
	}
	xc := "miss"
	if shared {
		s.met.Coalesced()
		xc = "coalesced"
	}
	span.SetAttr("cache", xc)
	return s.writeResponseSpan(span, w, ans[req.Format], xc)
}

// cacheKey is the response cache's key for req rendered as format:
// "op:digest". With format "" it keys a run or sweep flight, which
// renders every format.
func cacheKey(op string, req core.Request, format string) string {
	req.Format = format
	return op + ":" + req.Digest()
}

// writeResponseSpan is writeResponse under a "write" stage span.
func (s *Server) writeResponseSpan(span *telemetry.Span, w http.ResponseWriter, resp *response, xcache string) int {
	ws := span.Child("write")
	defer ws.End()
	return writeResponse(w, resp, xcache)
}

// execute runs one operation under admission control and renders it in
// each of formats. The slots channel is the total budget (running +
// queued): failing to take a slot without blocking is the backpressure
// signal. The sem channel is the execution budget; waiting on it is the
// queue, and the wait honors the flight context so abandoned work is
// torn down.
func (s *Server) execute(ctx context.Context, op string, req core.Request, formats []string) answer {
	every := func(resp *response) answer {
		ans := make(answer, len(formats))
		for _, f := range formats {
			ans[f] = resp
		}
		return ans
	}
	span := telemetry.SpanFrom(ctx)
	adm := span.Child("admission")
	select {
	case s.slots <- struct{}{}:
	default:
		adm.SetAttr("rejected", true)
		adm.End()
		// Full house: every execution slot busy and the queue at
		// capacity. Retry-After is the queue drain horizon, crudely:
		// one second per queued execution per worker, at least 1.
		return every(&response{
			status:      http.StatusTooManyRequests,
			contentType: "application/json",
			retryAfter:  1 + s.cfg.QueueDepth/s.cfg.Workers,
			body:        errBody(fmt.Errorf("%s: server saturated (%d running, %d queued); retry later", op, s.cfg.Workers, s.cfg.QueueDepth)),
		})
	}
	defer func() { <-s.slots }()

	s.met.AddQueued(1)
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.met.AddQueued(-1)
		adm.Fail(ctx.Err())
		adm.End()
		return every(&response{status: StatusClientClosedRequest, contentType: "application/json",
			body: errBody(fmt.Errorf("%s: abandoned while queued", op))})
	}
	s.met.AddQueued(-1)
	adm.End()
	s.met.AddInflight(1)
	defer func() {
		<-s.sem
		s.met.AddInflight(-1)
	}()

	exec := span.Child("engine-execute")
	execCtx := telemetry.ContextWithSpan(ctx, exec)
	var results []sweep.Result
	var buf bytes.Buffer
	var err error
	switch op {
	case "run", "sweep":
		results, err = RunArtifacts(execCtx, req, s.cfg.Workers)
	case "trace":
		err = WriteTrace(execCtx, &buf, req)
	case "links":
		err = WriteLinks(execCtx, &buf, req)
	case "counters":
		err = WriteCounters(execCtx, &buf, req, s.cfg.Workers)
	default:
		err = fmt.Errorf("unknown operation %q", op)
	}
	exec.Fail(err)
	exec.End()
	bodies := map[string][]byte{req.Format: buf.Bytes()}
	if err == nil && (op == "run" || op == "sweep") {
		render := span.Child("render")
		bodies, err = renderFormats(results, req, formats)
		render.Fail(err)
		render.End()
	}
	if err != nil {
		if ctx.Err() != nil {
			return every(&response{status: StatusClientClosedRequest, contentType: "application/json",
				body: errBody(ctx.Err())})
		}
		return every(&response{status: http.StatusInternalServerError,
			contentType: "application/json", body: errBody(err)})
	}
	ans := make(answer, len(bodies))
	for f, body := range bodies {
		ans[f] = &response{status: http.StatusOK, contentType: contentTypeFor(f), body: body}
	}
	return ans
}

// renderFormats renders a run or sweep's results once per format.
func renderFormats(results []sweep.Result, req core.Request, formats []string) (map[string][]byte, error) {
	bodies := make(map[string][]byte, len(formats))
	for _, f := range formats {
		var buf bytes.Buffer
		req.Format = f
		if err := WriteArtifacts(&buf, results, req); err != nil {
			return nil, err
		}
		bodies[f] = buf.Bytes()
	}
	return bodies, nil
}

// checkArity enforces per-operation id counts: run, trace and links
// address exactly one experiment; sweep and counters take any number.
func checkArity(op string, req core.Request) error {
	switch op {
	case "run", "trace", "links":
		if len(req.IDs) != 1 {
			return fmt.Errorf("%s: exactly one experiment id required, got %d", op, len(req.IDs))
		}
	}
	return nil
}

// opFormats lists the valid formats per operation (first is the default).
var opFormats = map[string][]string{
	"run":      {"text", "chart", "json", "csv"},
	"sweep":    {"text", "chart", "json", "csv"},
	"trace":    {"text", "chrome", "json"},
	"links":    {"text", "json"},
	"counters": {"text", "json", "csv"},
}

// CheckFormat rejects formats the operation cannot render, so the error
// surfaces as a 400 before any work is queued.
func CheckFormat(op, format string) error {
	for _, f := range opFormats[op] {
		if format == f || format == "" {
			return nil
		}
	}
	return fmt.Errorf("%s: unknown format %q (want %v)", op, format, opFormats[op])
}

// contentTypeFor maps a format to the response media type.
func contentTypeFor(format string) string {
	switch format {
	case "json", "chrome":
		return "application/json"
	case "csv":
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// writeResponse emits a materialized response with its cache-state
// header and returns the status code for metrics.
func writeResponse(w http.ResponseWriter, resp *response, xcache string) int {
	w.Header().Set("Content-Type", resp.contentType)
	w.Header().Set("X-Cache", xcache)
	if resp.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", resp.retryAfter))
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
	return resp.status
}

// writeError emits a JSON error body and returns the status code.
func writeError(w http.ResponseWriter, status int, err error) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(errBody(err))
	return status
}

// errBody is the uniform JSON error envelope.
func errBody(err error) []byte {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return append(b, '\n')
}

// handleMachines serves the machine-spec registry: GET /v1/machines
// lists every registered machine (the embedded five and -specs loads;
// a request's inline spec is never registered, so it never appears);
// GET /v1/machines?name=X returns X's resolved canonical spec, which
// round-trips through the decoder — a client can fetch a stock machine,
// patch it, and post the result back inline in a /v1/run request.
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := s.serveMachines(w, r)
	s.met.Observe("/v1/machines", code, time.Since(start))
}

func (s *Server) serveMachines(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		return writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("machines: use GET"))
	}
	if name := r.URL.Query().Get("name"); name != "" {
		m, ok := spec.Get(name)
		if !ok {
			return writeError(w, http.StatusNotFound,
				fmt.Errorf("machines: unknown machine %q (valid: %s)", name, strings.Join(spec.Names(), " ")))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(append(m.Spec.Canonical(), '\n'))
		return http.StatusOK
	}
	type entry struct {
		Name         string `json:"name"`
		Description  string `json:"description,omitempty"`
		Source       string `json:"source"`
		Digest       string `json:"digest"`
		CoresPerNode int    `json:"cores_per_node"`
		MaxNodes     int    `json:"max_nodes"`
	}
	var out []entry
	for _, m := range spec.Machines() {
		out = append(out, entry{
			Name:         m.Name(),
			Description:  m.Spec.Description,
			Source:       spec.Default.Source(m.Name()),
			Digest:       m.Digest(),
			CoresPerNode: m.CoresPerNode(),
			MaxNodes:     m.Spec.MaxNodes,
		})
	}
	body, err := json.Marshal(map[string]any{"machines": out})
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n'))
	return http.StatusOK
}

// handleHealthz reports liveness plus the registry sizes, so a probe
// also verifies the experiment tables linked in.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		code := writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("healthz: use GET"))
		s.met.Observe("/v1/healthz", code, time.Since(start))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(map[string]any{
		"status":      "ok",
		"experiments": len(core.List()),
		"extensions":  len(core.Extensions()),
		"machines":    len(spec.Names()),
		"uptime_s":    time.Since(s.met.started).Seconds(),
	})
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodGet {
		w.Write(append(body, '\n'))
	}
	s.met.Observe("/v1/healthz", http.StatusOK, time.Since(start))
}

// handleMetrics renders the Prometheus text exposition. HEAD answers
// with the headers only, so scrapers and probes can check liveness
// without paying for the body.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("metrics: use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	s.met.WritePrometheus(w)
}
