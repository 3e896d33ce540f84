package serve

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencyBuckets are the endpoint histograms' bucket upper bounds in
// seconds, the classic Prometheus default ladder.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// stageBuckets extends the ladder down to 10µs for the per-stage
// histograms: request stages on the cached path (decode, cache-lookup,
// write) complete in microseconds, and a millisecond-floor ladder would
// flatten them all into one bucket.
var stageBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram over the given sorted
// upper bounds plus an implicit +Inf overflow bucket.
type histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; the last is +Inf
	sum    float64
	total  uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// escapeLabel escapes a Prometheus label value: backslash, double quote
// and newline, exactly the three escapes the text exposition defines
// (fmt's %q would also escape characters Prometheus wants verbatim).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// Metrics is the daemon's self-instrumentation: request counts by
// endpoint and status code, response-cache and singleflight hit
// counters, queue/inflight gauges and per-endpoint latency histograms.
// All methods are safe for concurrent use. WritePrometheus renders the
// whole set in the Prometheus text exposition format, hand-rolled
// because the module takes no dependencies.
type Metrics struct {
	mu        sync.Mutex
	requests  map[string]map[int]uint64 // endpoint → code → count
	latency   map[string]*histogram     // endpoint → histogram
	stages    map[string]*histogram     // span stage → histogram
	cacheHits uint64
	cacheMiss uint64
	coalesced uint64
	rejected  uint64
	inflight  int64
	queued    int64

	// gauges sampled at scrape time, installed by the server
	queueCapacity int
	cacheSize     func() (entries, bytes int)
	started       time.Time

	// build identity, resolved once at construction
	buildVersion string
	buildGo      string
}

func newMetrics() *Metrics {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return &Metrics{
		requests:     make(map[string]map[int]uint64),
		latency:      make(map[string]*histogram),
		stages:       make(map[string]*histogram),
		started:      time.Now(),
		buildVersion: version,
		buildGo:      runtime.Version(),
	}
}

// Observe records one completed request.
func (m *Metrics) Observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[endpoint]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[endpoint] = byCode
	}
	byCode[code]++
	h := m.latency[endpoint]
	if h == nil {
		h = newHistogram(latencyBuckets)
		m.latency[endpoint] = h
	}
	h.observe(d.Seconds())
	if code == 429 {
		m.rejected++
	}
}

// ObserveStage records one request stage's duration from span
// telemetry (the stage label is the span name: decode, cache-lookup,
// singleflight-wait, admission, engine-execute, render, write).
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.stages[stage]
	if h == nil {
		h = newHistogram(stageBuckets)
		m.stages[stage] = h
	}
	h.observe(d.Seconds())
}

// CountersSnapshot captures the daemon's counter/gauge state as a flat
// map — what the flight recorder stamps on each retained request so a
// slow entry also shows the server's load at the time.
func (m *Metrics) CountersSnapshot() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]float64{
		"cache_hits":   float64(m.cacheHits),
		"cache_misses": float64(m.cacheMiss),
		"coalesced":    float64(m.coalesced),
		"rejected":     float64(m.rejected),
		"inflight":     float64(m.inflight),
		"queued":       float64(m.queued),
	}
}

// CacheHit / CacheMiss / Coalesced record response-cache and
// singleflight outcomes for cacheable endpoints.
func (m *Metrics) CacheHit()  { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *Metrics) CacheMiss() { m.mu.Lock(); m.cacheMiss++; m.mu.Unlock() }
func (m *Metrics) Coalesced() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }

// AddInflight / AddQueued move the execution gauges.
func (m *Metrics) AddInflight(d int64) { m.mu.Lock(); m.inflight += d; m.mu.Unlock() }
func (m *Metrics) AddQueued(d int64)   { m.mu.Lock(); m.queued += d; m.mu.Unlock() }

// Inflight returns the number of executions currently running.
func (m *Metrics) Inflight() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.inflight }

// Queued returns the number of executions waiting for a slot.
func (m *Metrics) Queued() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.queued }

// CacheHitRatio returns hits / (hits + misses), 0 when nothing has been
// looked up yet. Singleflight joins count as neither: they are their
// own metric.
func (m *Metrics) CacheHitRatio() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := m.cacheHits + m.cacheMiss
	if total == 0 {
		return 0
	}
	return float64(m.cacheHits) / float64(total)
}

// Requests returns the total request count for an endpoint ("" sums all
// endpoints), optionally filtered to one status code (0 sums all).
func (m *Metrics) Requests(endpoint string, code int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for ep, byCode := range m.requests {
		if endpoint != "" && ep != endpoint {
			continue
		}
		for c, v := range byCode {
			if code != 0 && c != code {
				continue
			}
			n += v
		}
	}
	return n
}

// WritePrometheus renders every metric in the Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b []byte
	p := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}

	p("# HELP a64fxbench_serve_requests_total Completed HTTP requests by endpoint and status code.\n")
	p("# TYPE a64fxbench_serve_requests_total counter\n")
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		codes := make([]int, 0, len(m.requests[ep]))
		for c := range m.requests[ep] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			p("a64fxbench_serve_requests_total{endpoint=\"%s\",code=\"%d\"} %d\n", escapeLabel(ep), c, m.requests[ep][c])
		}
	}

	p("# HELP a64fxbench_serve_build_info Build metadata; the value is always 1.\n")
	p("# TYPE a64fxbench_serve_build_info gauge\n")
	p("a64fxbench_serve_build_info{version=\"%s\",go=\"%s\"} 1\n",
		escapeLabel(m.buildVersion), escapeLabel(m.buildGo))

	p("# HELP a64fxbench_serve_cache_hits_total Response-cache hits on cacheable endpoints.\n")
	p("# TYPE a64fxbench_serve_cache_hits_total counter\n")
	p("a64fxbench_serve_cache_hits_total %d\n", m.cacheHits)
	p("# HELP a64fxbench_serve_cache_misses_total Response-cache misses on cacheable endpoints.\n")
	p("# TYPE a64fxbench_serve_cache_misses_total counter\n")
	p("a64fxbench_serve_cache_misses_total %d\n", m.cacheMiss)
	ratio := 0.0
	if t := m.cacheHits + m.cacheMiss; t > 0 {
		ratio = float64(m.cacheHits) / float64(t)
	}
	p("# HELP a64fxbench_serve_cache_hit_ratio Hits over lookups since start.\n")
	p("# TYPE a64fxbench_serve_cache_hit_ratio gauge\n")
	p("a64fxbench_serve_cache_hit_ratio %g\n", ratio)
	p("# HELP a64fxbench_serve_flight_coalesced_total Requests that joined an identical in-flight execution.\n")
	p("# TYPE a64fxbench_serve_flight_coalesced_total counter\n")
	p("a64fxbench_serve_flight_coalesced_total %d\n", m.coalesced)
	p("# HELP a64fxbench_serve_rejected_total Requests rejected with 429 by queue backpressure.\n")
	p("# TYPE a64fxbench_serve_rejected_total counter\n")
	p("a64fxbench_serve_rejected_total %d\n", m.rejected)

	p("# HELP a64fxbench_serve_inflight Executions currently running.\n")
	p("# TYPE a64fxbench_serve_inflight gauge\n")
	p("a64fxbench_serve_inflight %d\n", m.inflight)
	p("# HELP a64fxbench_serve_queue_depth Executions admitted and waiting for a worker slot.\n")
	p("# TYPE a64fxbench_serve_queue_depth gauge\n")
	p("a64fxbench_serve_queue_depth %d\n", m.queued)
	p("# HELP a64fxbench_serve_queue_capacity Maximum queued executions before 429.\n")
	p("# TYPE a64fxbench_serve_queue_capacity gauge\n")
	p("a64fxbench_serve_queue_capacity %d\n", m.queueCapacity)
	if m.cacheSize != nil {
		entries, bytes := m.cacheSize()
		p("# HELP a64fxbench_serve_cached_responses Entries in the response cache.\n")
		p("# TYPE a64fxbench_serve_cached_responses gauge\n")
		p("a64fxbench_serve_cached_responses %d\n", entries)
		p("# HELP a64fxbench_serve_cached_bytes Bytes the response cache charges its entries: bodies, keys and per-entry overhead.\n")
		p("# TYPE a64fxbench_serve_cached_bytes gauge\n")
		p("a64fxbench_serve_cached_bytes %d\n", bytes)
	}
	p("# HELP a64fxbench_serve_uptime_seconds Seconds since the server started.\n")
	p("# TYPE a64fxbench_serve_uptime_seconds gauge\n")
	p("a64fxbench_serve_uptime_seconds %g\n", time.Since(m.started).Seconds())

	p("# HELP a64fxbench_serve_request_seconds Request latency by endpoint.\n")
	p("# TYPE a64fxbench_serve_request_seconds histogram\n")
	eps := make([]string, 0, len(m.latency))
	for ep := range m.latency {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		h := m.latency[ep]
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			p("a64fxbench_serve_request_seconds_bucket{endpoint=\"%s\",le=\"%g\"} %d\n", escapeLabel(ep), ub, cum)
		}
		p("a64fxbench_serve_request_seconds_bucket{endpoint=\"%s\",le=\"+Inf\"} %d\n", escapeLabel(ep), h.total)
		p("a64fxbench_serve_request_seconds_sum{endpoint=\"%s\"} %g\n", escapeLabel(ep), h.sum)
		p("a64fxbench_serve_request_seconds_count{endpoint=\"%s\"} %d\n", escapeLabel(ep), h.total)
	}

	if len(m.stages) > 0 {
		p("# HELP a64fxbench_serve_stage_seconds Per-stage request latency from span telemetry.\n")
		p("# TYPE a64fxbench_serve_stage_seconds histogram\n")
		stages := make([]string, 0, len(m.stages))
		for st := range m.stages {
			stages = append(stages, st)
		}
		sort.Strings(stages)
		for _, st := range stages {
			h := m.stages[st]
			var cum uint64
			for i, ub := range h.bounds {
				cum += h.counts[i]
				p("a64fxbench_serve_stage_seconds_bucket{stage=\"%s\",le=\"%g\"} %d\n", escapeLabel(st), ub, cum)
			}
			p("a64fxbench_serve_stage_seconds_bucket{stage=\"%s\",le=\"+Inf\"} %d\n", escapeLabel(st), h.total)
			p("a64fxbench_serve_stage_seconds_sum{stage=\"%s\"} %g\n", escapeLabel(st), h.sum)
			p("a64fxbench_serve_stage_seconds_count{stage=\"%s\"} %d\n", escapeLabel(st), h.total)
		}
	}

	_, err := w.Write(b)
	return err
}
