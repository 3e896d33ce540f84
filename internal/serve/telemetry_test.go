package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"a64fxbench/internal/core"
	"a64fxbench/internal/telemetry"
)

func init() {
	err := core.RegisterExtension(&core.Experiment{
		ID: "slowtest", Title: "telemetry slow extension", Kind: core.Table,
		Description: "sleeps so its request lands in the flight recorder (test only)",
		Run: func(opt core.Options) (*core.Artifact, error) {
			time.Sleep(30 * time.Millisecond)
			return &core.Artifact{
				ID: "slowtest", Title: "telemetry slow extension", Kind: core.Table,
				Columns: []string{"v"}, RowLabels: []string{"r"},
				Cells: [][]core.Cell{{{Value: 1}}},
			}, nil
		},
	})
	if err != nil {
		panic(err)
	}
}

func TestRequestIDOnEveryV1Response(t *testing.T) {
	t.Parallel()
	h := New(Config{}).Handler()
	cases := []struct {
		method, path, body string
	}{
		{"POST", "/v1/run", `{"ids":["srvtest"],"quick":true}`},
		{"POST", "/v1/run", `{"ids":`}, // 400 still carries the id
		{"GET", "/v1/run", ""},         // 405 too
		{"GET", "/v1/healthz", ""},
		{"GET", "/v1/machines", ""},
		{"GET", "/v1/debug/slow", ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if id := rec.Header().Get("X-Request-ID"); id == "" {
			t.Errorf("%s %s: no X-Request-ID (status %d)", tc.method, tc.path, rec.Code)
		}
	}
	// A client-supplied id is honored verbatim.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "client-chosen-7")
	h.ServeHTTP(rec, req)
	if id := rec.Header().Get("X-Request-ID"); id != "client-chosen-7" {
		t.Fatalf("client id not honored: got %q", id)
	}
	// Generated ids are unique across requests.
	a := post(h, "/v1/healthz", "")
	_ = a
	r1 := httptest.NewRecorder()
	h.ServeHTTP(r1, httptest.NewRequest("GET", "/v1/healthz", nil))
	r2 := httptest.NewRecorder()
	h.ServeHTTP(r2, httptest.NewRequest("GET", "/v1/healthz", nil))
	if r1.Header().Get("X-Request-ID") == r2.Header().Get("X-Request-ID") {
		t.Fatal("two requests got the same generated id")
	}
}

func TestSlowRequestInFlightRecorder(t *testing.T) {
	t.Parallel()
	srv := New(Config{})
	h := srv.Handler()
	rec := post(h, "/v1/run", `{"ids":["slowtest"],"quick":true}`)
	if rec.Code != 200 {
		t.Fatalf("run: status %d: %s", rec.Code, rec.Body.String())
	}
	wantID := rec.Header().Get("X-Request-ID")

	dbg := httptest.NewRecorder()
	h.ServeHTTP(dbg, httptest.NewRequest("GET", "/v1/debug/slow", nil))
	if dbg.Code != 200 {
		t.Fatalf("debug/slow: status %d", dbg.Code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(dbg.Body.Bytes(), &snap); err != nil {
		t.Fatalf("debug/slow: bad JSON: %v", err)
	}
	var entry *telemetry.Entry
	for _, e := range snap.Slowest {
		if e.RequestID == wantID {
			entry = e
		}
	}
	if entry == nil {
		t.Fatalf("request %s not in flight recorder (have %d slow entries)", wantID, len(snap.Slowest))
	}
	if entry.Op != "/v1/run" || entry.Status != 200 || entry.Cache != "miss" {
		t.Fatalf("entry identity = %s/%d/%s, want /v1/run/200/miss", entry.Op, entry.Status, entry.Cache)
	}
	if entry.Digest == "" {
		t.Fatal("entry has no request digest")
	}
	if len(entry.Counters) == 0 {
		t.Fatal("entry has no counter snapshot")
	}
	if entry.Spans == nil {
		t.Fatal("entry has no span tree")
	}

	// The root's direct wall children tile the request: their durations
	// must sum to the end-to-end latency within tolerance.
	var sum time.Duration
	for _, d := range entry.Spans.Stages() {
		sum += d
	}
	total := time.Duration(entry.DurationMS * float64(time.Millisecond))
	if diff := (total - sum).Abs(); diff > total/4+5*time.Millisecond {
		t.Fatalf("stage sum %v vs end-to-end %v (diff %v) out of tolerance\nstages: %v",
			sum, total, diff, entry.Spans.Stages())
	}
	// The execution detail nests under the singleflight wait.
	for _, name := range []string{"singleflight-wait", "admission", "engine-execute", "render", "artifact:slowtest"} {
		if entry.Spans.Find(name) == nil {
			t.Errorf("span tree missing %q", name)
		}
	}

	// A repeat of the same request is a cache hit, and its recorder
	// entry says so.
	rec2 := post(h, "/v1/run", `{"ids":["slowtest"],"quick":true}`)
	if rec2.Code != 200 || rec2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d, X-Cache %q", rec2.Code, rec2.Header().Get("X-Cache"))
	}
	snap2 := srv.Recorder().Snapshot()
	found := false
	for _, e := range snap2.Slowest {
		if e.RequestID == rec2.Header().Get("X-Request-ID") {
			found = true
			if e.Cache != "hit" {
				t.Fatalf("cache-hit entry records cache=%q", e.Cache)
			}
			if e.Spans.Find("engine-execute") != nil {
				t.Fatal("cache-hit entry has an engine-execute span")
			}
		}
	}
	if !found {
		t.Skip("cache hit too fast to displace a slow entry (tiny slow set?)")
	}
}

func TestErroredRequestsEnterRing(t *testing.T) {
	t.Parallel()
	srv := New(Config{})
	h := srv.Handler()
	rec := post(h, "/v1/run", `{"ids":["nope-no-such-id"]}`)
	if rec.Code != 400 {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	snap := srv.Recorder().Snapshot()
	if len(snap.Errored) != 1 {
		t.Fatalf("errored ring holds %d entries, want 1", len(snap.Errored))
	}
	e := snap.Errored[0]
	if e.Status != 400 || e.RequestID != rec.Header().Get("X-Request-ID") {
		t.Fatalf("errored entry = %+v", e)
	}
	if e.Spans.Find("decode") == nil {
		t.Fatal("errored entry missing its decode span")
	}
}

func TestRequestLogLine(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := New(Config{Logger: logger}).Handler()
	rec := post(h, "/v1/run", `{"ids":["srvtest"],"quick":true,"format":"json"}`)
	if rec.Code != 200 {
		t.Fatalf("run: status %d", rec.Code)
	}
	line := strings.TrimSpace(buf.String())
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("log line is not one JSON object: %v\n%s", err, line)
	}
	for _, key := range []string{"time", "level", "msg", "request_id", "op", "method", "status", "cache", "digest", "duration_ms", "stages"} {
		if _, ok := got[key]; !ok {
			t.Errorf("log line missing %q: %s", key, line)
		}
	}
	if got["msg"] != "request" || got["op"] != "/v1/run" || got["method"] != "POST" {
		t.Fatalf("log identity wrong: %s", line)
	}
	if got["status"].(float64) != 200 {
		t.Fatalf("status = %v", got["status"])
	}
	if got["request_id"] != rec.Header().Get("X-Request-ID") {
		t.Fatal("log request_id does not match the response header")
	}
	stages, ok := got["stages"].(map[string]any)
	if !ok || len(stages) == 0 {
		t.Fatalf("stages missing or empty: %s", line)
	}
	for _, st := range []string{"decode", "singleflight-wait", "engine-execute"} {
		if _, ok := stages[st]; !ok {
			t.Errorf("stages missing %q: %v", st, stages)
		}
	}
}

func TestStageMetricsAndBuildInfo(t *testing.T) {
	t.Parallel()
	srv := New(Config{})
	h := srv.Handler()
	post(h, "/v1/run", `{"ids":["srvtest"],"quick":true}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`a64fxbench_serve_build_info{version="`,
		"a64fxbench_serve_uptime_seconds",
		`a64fxbench_serve_stage_seconds_bucket{stage="decode",le="0.001"}`,
		`a64fxbench_serve_stage_seconds_bucket{stage="engine-execute",le="+Inf"}`,
		`a64fxbench_serve_stage_seconds_count{stage="write"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The decode histogram holds the request's observation, and its
	// cumulative buckets climb to the count.
	samples, _, _, _ := parseExposition(t, body)
	count, prev := 0.0, 0.0
	for _, s := range samples {
		if s.labels["stage"] != "decode" {
			continue
		}
		switch s.name {
		case "a64fxbench_serve_stage_seconds_count":
			count = s.value
		case "a64fxbench_serve_stage_seconds_bucket":
			if s.value < prev {
				t.Fatalf("decode bucket le=%s holds %g, below the previous %g", s.labels["le"], s.value, prev)
			}
			prev = s.value
		}
	}
	if count == 0 {
		t.Fatal("decode stage has no observations")
	}
	if prev != count {
		t.Fatalf("decode +Inf bucket %g != count %g", prev, count)
	}
}

func TestHeadRequests(t *testing.T) {
	t.Parallel()
	h := New(Config{}).Handler()
	for _, path := range []string{"/metrics", "/v1/healthz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("HEAD", path, nil))
		if rec.Code != 200 {
			t.Errorf("HEAD %s: status %d", path, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("HEAD %s: body %d bytes, want none", path, rec.Body.Len())
		}
	}
}

func TestDebugSlowFormats(t *testing.T) {
	t.Parallel()
	srv := New(Config{})
	h := srv.Handler()
	rec := post(h, "/v1/run", `{"ids":["srvtest"],"quick":true}`)
	id := rec.Header().Get("X-Request-ID")

	text := httptest.NewRecorder()
	h.ServeHTTP(text, httptest.NewRequest("GET", "/v1/debug/slow?format=text", nil))
	if text.Code != 200 || !strings.Contains(text.Body.String(), id) {
		t.Fatalf("text view (status %d) missing request id %s:\n%s", text.Code, id, text.Body.String())
	}
	if !strings.Contains(text.Body.String(), "singleflight-wait") {
		t.Fatal("text view missing span tree")
	}

	chrome := httptest.NewRecorder()
	h.ServeHTTP(chrome, httptest.NewRequest("GET", "/v1/debug/slow?format=chrome", nil))
	var doc map[string]any
	if err := json.Unmarshal(chrome.Body.Bytes(), &doc); err != nil {
		t.Fatalf("chrome view is not JSON: %v", err)
	}
	events, ok := doc["traceEvents"].([]any)
	if !ok || len(events) == 0 {
		t.Fatal("chrome view has no traceEvents")
	}

	bad := httptest.NewRecorder()
	h.ServeHTTP(bad, httptest.NewRequest("GET", "/v1/debug/slow?format=xml", nil))
	if bad.Code != 400 {
		t.Fatalf("bad format: status %d, want 400", bad.Code)
	}
	capped := httptest.NewRecorder()
	h.ServeHTTP(capped, httptest.NewRequest("GET", "/v1/debug/slow?n=0", nil))
	var snap telemetry.Snapshot
	if err := json.Unmarshal(capped.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Slowest) != 0 {
		t.Fatalf("n=0 returned %d entries", len(snap.Slowest))
	}
}
