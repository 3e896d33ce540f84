package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"a64fxbench/internal/core"
	"a64fxbench/internal/spec"
)

// The test extension: a registry-resident experiment whose executions
// can be counted and blocked, which is what lets these tests observe
// singleflight coalescing and fill the execution queue on demand.
var (
	extRuns int64 // atomic: total Run invocations
	extMu   sync.Mutex
	extGate chan struct{} // non-nil: Run blocks until it is closed
)

// holdExtension makes every subsequent test-extension run block until
// the returned release function is called.
func holdExtension() (release func()) {
	gate := make(chan struct{})
	extMu.Lock()
	extGate = gate
	extMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			extMu.Lock()
			extGate = nil
			extMu.Unlock()
			close(gate)
		})
	}
}

func init() {
	err := core.RegisterExtension(&core.Experiment{
		ID: "srvtest", Title: "serve test extension", Kind: core.Table,
		Description: "counts and optionally blocks executions (test only)",
		Run: func(opt core.Options) (*core.Artifact, error) {
			atomic.AddInt64(&extRuns, 1)
			extMu.Lock()
			gate := extGate
			extMu.Unlock()
			if gate != nil {
				<-gate
			}
			return &core.Artifact{
				ID: "srvtest", Title: "serve test extension", Kind: core.Table,
				Columns: []string{"runs"}, RowLabels: []string{"total"},
				Cells: [][]core.Cell{{{Value: 1}}},
			}, nil
		},
	})
	if err != nil {
		panic(err)
	}
}

// post drives one request through the handler in process.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

func TestEndpointTable(t *testing.T) {
	t.Parallel()
	srv := New(Config{})
	h := srv.Handler()
	cases := []struct {
		name, method, path, body string
		wantCode                 int
		wantType                 string // Content-Type prefix, "" = skip
		wantBody                 string // substring, "" = skip
	}{
		{"run ok", "POST", "/v1/run", `{"ids":["table1"],"quick":true,"format":"json"}`, 200, "application/json", `"table1"`},
		{"run text", "POST", "/v1/run", `{"ids":["table1"],"quick":true}`, 200, "text/plain", "TABLE1"},
		{"sweep ok", "POST", "/v1/sweep", `{"ids":["table1","table2"],"quick":true,"format":"json"}`, 200, "application/json", `"table2"`},
		{"trace ok", "POST", "/v1/trace", `{"ids":["srvtest"],"quick":true}`, 200, "text/plain", ""},
		{"counters ok", "POST", "/v1/counters", `{"ids":["table2"],"quick":true,"format":"json"}`, 200, "application/json", "schema"},
		{"links ok", "POST", "/v1/links", `{"ids":["table2"],"quick":true}`, 200, "text/plain", "links"},
		{"run two ids", "POST", "/v1/run", `{"ids":["table1","table2"]}`, 400, "application/json", "exactly one"},
		{"trace two ids", "POST", "/v1/trace", `{"ids":["table1","table2"]}`, 400, "application/json", "exactly one"},
		{"links two ids", "POST", "/v1/links", `{"ids":["table1","table2"]}`, 400, "application/json", "exactly one"},
		{"bad json", "POST", "/v1/run", `{"ids":`, 400, "application/json", "error"},
		{"unknown field", "POST", "/v1/run", `{"ids":["table1"],"quik":true}`, 400, "application/json", "quik"},
		{"unknown id", "POST", "/v1/run", `{"ids":["nope"]}`, 400, "application/json", "table1"},
		{"no ids", "POST", "/v1/sweep", `{}`, 400, "application/json", "no experiment ids"},
		{"bad format", "POST", "/v1/run", `{"ids":["table1"],"format":"xml"}`, 400, "application/json", "xml"},
		{"trace bad format", "POST", "/v1/trace", `{"ids":["table1"],"format":"chart"}`, 400, "application/json", "chart"},
		{"run GET", "GET", "/v1/run", "", 405, "application/json", "POST"},
		{"healthz", "GET", "/v1/healthz", "", 200, "application/json", `"ok"`},
		{"healthz POST", "POST", "/v1/healthz", "", 405, "application/json", "GET"},
		{"metrics", "GET", "/metrics", "", 200, "text/plain", "a64fxbench_serve_requests_total"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.wantCode {
				t.Fatalf("%s %s: code %d, want %d (body %s)", tc.method, tc.path, rec.Code, tc.wantCode, rec.Body.String())
			}
			if tc.wantType != "" && !strings.HasPrefix(rec.Header().Get("Content-Type"), tc.wantType) {
				t.Fatalf("Content-Type %q, want prefix %q", rec.Header().Get("Content-Type"), tc.wantType)
			}
			if tc.wantBody != "" && !strings.Contains(rec.Body.String(), tc.wantBody) {
				t.Fatalf("body %q does not contain %q", rec.Body.String(), tc.wantBody)
			}
		})
	}
}

func TestResponseCacheAndHeaders(t *testing.T) {
	t.Parallel()
	srv := New(Config{})
	h := srv.Handler()
	body := `{"ids":["table1"],"quick":true,"format":"json"}`

	first := post(h, "/v1/run", body)
	if first.Code != 200 || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request: code %d, X-Cache %q; want 200 miss", first.Code, first.Header().Get("X-Cache"))
	}
	second := post(h, "/v1/run", body)
	if second.Code != 200 || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request: code %d, X-Cache %q; want 200 hit", second.Code, second.Header().Get("X-Cache"))
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("cached response bytes differ from the original")
	}
	// A semantically identical but differently-spelled request hits too:
	// the digest is computed on the normalized form.
	third := post(h, "/v1/run", `{"ids":[" TABLE1 "],"quick":true,"format":"json"}`)
	if third.Header().Get("X-Cache") != "hit" {
		t.Fatalf("normalized-equal request: X-Cache %q, want hit", third.Header().Get("X-Cache"))
	}
	if ratio := srv.Metrics().CacheHitRatio(); ratio <= 0 {
		t.Fatalf("cache hit ratio %v, want > 0", ratio)
	}
	// The same digest on a different endpoint is a different cache key.
	sweepRec := post(h, "/v1/sweep", body)
	if sweepRec.Code != 200 || sweepRec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("sweep with run's digest: code %d, X-Cache %q; want 200 miss", sweepRec.Code, sweepRec.Header().Get("X-Cache"))
	}
}

// TestResponseCacheEviction fills the response cache past its byte
// budget: each entry is charged its key, body and overhead bytes, puts
// evict oldest-first until the new entry fits, an entry larger than the
// whole budget is not cached, and putting a key that is already cached
// changes neither its entry nor the eviction order.
func TestResponseCacheEviction(t *testing.T) {
	t.Parallel()
	body := func(n int) *response { return &response{status: http.StatusOK, body: make([]byte, n)} }
	key := func(i int) string { return fmt.Sprintf("run:%d", i) }
	per := func(n int) int { return len(key(0)) + n + entryOverhead } // an entry's charge
	budget := 3*per(30) + 10
	c := newResponseCache(budget)
	for i := 0; i < 4; i++ {
		c.put(key(i), body(30))
	}
	// Four entries overflow a budget of three: only the oldest went.
	if _, ok := c.get(key(0)); ok {
		t.Fatal("the oldest key survived a put past the budget")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.get(key(i)); !ok {
			t.Fatalf("key %d evicted; only the oldest should go", i)
		}
	}
	// A body 40 bytes longer evicts the two oldest of the three left.
	c.put(key(4), body(70))
	if entries, bytes := c.size(); entries != 2 || bytes != per(30)+per(70) {
		t.Fatalf("cache holds %d entries, %d bytes; want 2 entries, %d bytes", entries, bytes, per(30)+per(70))
	}
	for _, i := range []int{3, 4} {
		if _, ok := c.get(key(i)); !ok {
			t.Fatalf("key %d evicted out of order", i)
		}
	}

	first, _ := c.get(key(3))
	order := slices.Clone(c.order)
	c.put(key(3), body(10))
	if got, _ := c.get(key(3)); got != first {
		t.Fatal("a duplicate put replaced the cached entry")
	}
	if !slices.Equal(c.order, order) {
		t.Fatal("a duplicate put changed the eviction order")
	}

	c.put(key(5), body(budget))
	if _, ok := c.get(key(5)); ok {
		t.Fatal("a body over the whole budget was cached")
	}
	if entries, bytes := c.size(); entries != 2 || bytes != per(30)+per(70) {
		t.Fatalf("an over-budget put left %d entries, %d bytes; want the 2 entries, %d bytes", entries, bytes, per(30)+per(70))
	}

	// Three one-byte bodies are far below the budget, but their keys and
	// overhead are not: a cache with room for two entries evicts the
	// oldest.
	small := newResponseCache(2 * per(1))
	for i := 0; i < 3; i++ {
		small.put(key(i), body(1))
	}
	if entries, bytes := small.size(); entries != 2 || bytes != 2*per(1) {
		t.Fatalf("small bodies: %d entries, %d bytes; want 2 entries, %d bytes", entries, bytes, 2*per(1))
	}
	if _, ok := small.get(key(0)); ok {
		t.Fatal("small bodies: the oldest key survived its entries' charge")
	}
}

// TestOverBudgetBodyIsServedUncached: a response whose body exceeds the
// cache's whole budget is served in full, and the next identical request
// executes again.
func TestOverBudgetBodyIsServedUncached(t *testing.T) {
	srv := New(Config{})
	srv.cache.max = 16 // smaller than any srvtest body
	h := srv.Handler()
	before := atomic.LoadInt64(&extRuns)
	body := `{"ids":["srvtest"],"format":"json"}`
	for i := 0; i < 2; i++ {
		rec := post(h, "/v1/run", body)
		if rec.Code != 200 || rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("request %d: code %d, X-Cache %q; want 200 miss", i, rec.Code, rec.Header().Get("X-Cache"))
		}
		if !strings.Contains(rec.Body.String(), `"srvtest"`) {
			t.Fatalf("request %d: body %q is not the artifact", i, rec.Body.String())
		}
	}
	if got := atomic.LoadInt64(&extRuns) - before; got != 2 {
		t.Fatalf("the uncacheable request executed %d times, want 2", got)
	}
	if entries, _ := srv.cache.size(); entries != 0 {
		t.Fatalf("cache holds %d entries, want none", entries)
	}
}

// TestOneExecutionFillsEveryFormat: the first request for a run renders
// it in every format, so each other format of the same request is a
// cache hit and the experiment runs once.
func TestOneExecutionFillsEveryFormat(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	before := atomic.LoadInt64(&extRuns)
	for i, f := range opFormats["run"] {
		rec := post(h, "/v1/run", fmt.Sprintf(`{"ids":["srvtest"],"format":%q}`, f))
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if rec.Code != 200 || rec.Header().Get("X-Cache") != want {
			t.Fatalf("%s: code %d, X-Cache %q; want 200 %s", f, rec.Code, rec.Header().Get("X-Cache"), want)
		}
		if got := rec.Header().Get("Content-Type"); got != contentTypeFor(f) {
			t.Fatalf("%s: Content-Type %q, want %q", f, got, contentTypeFor(f))
		}
	}
	if got := atomic.LoadInt64(&extRuns) - before; got != 1 {
		t.Fatalf("four formats of one run executed %d times, want 1", got)
	}
	if entries, bytes := srv.cache.size(); entries != 4 || bytes == 0 {
		t.Fatalf("cache holds %d entries, %d bytes; want the 4 formats", entries, bytes)
	}
}

// TestConcurrentFormatsShareOneExecution: text and json requests for an
// uncached run, in flight together, join one execution, and each gets
// its own format.
func TestConcurrentFormatsShareOneExecution(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	release := holdExtension()
	defer release()
	before := atomic.LoadInt64(&extRuns)

	formats := []string{"text", "json"}
	recs := make([]*httptest.ResponseRecorder, len(formats))
	var wg sync.WaitGroup
	for i, f := range formats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = post(h, "/v1/run", fmt.Sprintf(`{"ids":["srvtest"],"format":%q}`, f))
		}()
	}
	req, err := core.ParseRequest([]byte(`{"ids":["srvtest"]}`))
	if err != nil {
		t.Fatal(err)
	}
	flight := cacheKey("run", req, "")
	waitFor(t, "both requests to join one flight", func() bool {
		srv.flight.mu.Lock()
		defer srv.flight.mu.Unlock()
		c := srv.flight.calls[flight]
		return c != nil && c.waiters == len(formats)
	})
	release()
	wg.Wait()

	if got := atomic.LoadInt64(&extRuns) - before; got != 1 {
		t.Fatalf("concurrent text and json requests executed %d times, want 1", got)
	}
	xcaches := map[string]bool{}
	for i, rec := range recs {
		if rec.Code != 200 {
			t.Fatalf("%s: code %d (body %s)", formats[i], rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("Content-Type"); got != contentTypeFor(formats[i]) {
			t.Fatalf("%s: Content-Type %q", formats[i], got)
		}
		xcaches[rec.Header().Get("X-Cache")] = true
	}
	if !xcaches["miss"] || !xcaches["coalesced"] {
		t.Fatalf("X-Cache values %v, want one miss and one coalesced", xcaches)
	}
	if !json.Valid(recs[1].Body.Bytes()) || json.Valid(recs[0].Body.Bytes()) {
		t.Fatal("the waiters did not each get their own format")
	}
}

// flakyCalls counts executions of the srvflaky experiment.
var flakyCalls atomic.Int64

// TestFailureIsNotCached: an experiment that fails once answers 500,
// and the next identical request executes it again instead of replaying
// the failure; its success is then cached.
func TestFailureIsNotCached(t *testing.T) {
	if _, err := core.GetExtension("srvflaky"); err != nil {
		if err := core.RegisterExtension(&core.Experiment{
			ID: "srvflaky", Title: "fails on its first call", Kind: core.Table,
			Run: func(core.Options) (*core.Artifact, error) {
				if flakyCalls.Add(1) == 1 {
					return nil, errors.New("transient failure")
				}
				return &core.Artifact{ID: "srvflaky", Title: "fails on its first call", Kind: core.Table}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	flakyCalls.Store(0)
	h := New(Config{}).Handler()
	body := `{"ids":["srvflaky"]}`
	for i, want := range []struct {
		code   int
		xcache string
	}{{500, "miss"}, {200, "miss"}, {200, "hit"}} {
		rec := post(h, "/v1/run", body)
		if rec.Code != want.code || rec.Header().Get("X-Cache") != want.xcache {
			t.Fatalf("request %d: code %d, X-Cache %q; want %d %s (body %s)",
				i, rec.Code, rec.Header().Get("X-Cache"), want.code, want.xcache, rec.Body.String())
		}
	}
	if got := flakyCalls.Load(); got != 2 {
		t.Fatalf("the experiment ran %d times, want 2", got)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSingleflightCoalescesIdenticalRequests(t *testing.T) {
	srv := New(Config{Workers: 4})
	h := srv.Handler()
	release := holdExtension()
	defer release()
	before := atomic.LoadInt64(&extRuns)

	const n = 20
	body := `{"ids":["srvtest"],"format":"json"}`
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(h, "/v1/run", body)
		}(i)
	}
	// All n requests coalesce onto one execution, which is now blocked
	// inside the extension.
	waitFor(t, "the single execution to start", func() bool {
		return atomic.LoadInt64(&extRuns) == before+1
	})
	waitFor(t, "all requests to join the flight", func() bool {
		return srv.Metrics().Requests("/v1/run", 0) >= 0 && srv.Metrics().Inflight() == 1
	})
	release()
	wg.Wait()

	if got := atomic.LoadInt64(&extRuns) - before; got != 1 {
		t.Fatalf("%d identical concurrent requests ran the experiment %d times, want exactly 1", n, got)
	}
	var miss, coalesced int
	for i, rec := range recs {
		if rec.Code != 200 {
			t.Fatalf("request %d: code %d (body %s)", i, rec.Code, rec.Body.String())
		}
		switch xc := rec.Header().Get("X-Cache"); xc {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			// A request that arrived after the flight published.
		default:
			t.Fatalf("request %d: unexpected X-Cache %q", i, xc)
		}
		if rec.Body.String() != recs[0].Body.String() {
			t.Fatalf("request %d: body diverged", i)
		}
	}
	if miss != 1 {
		t.Fatalf("%d leaders (X-Cache: miss), want exactly 1 (coalesced %d)", miss, coalesced)
	}
}

func TestBackpressure429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	h := srv.Handler()
	release := holdExtension()
	defer release()

	// Distinct requests so nothing coalesces (the formats of one request
	// share an execution, so they differ in quick and compare).
	bodies := []string{
		`{"ids":["srvtest"]}`,
		`{"ids":["srvtest"],"quick":true}`,
	}
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			recs[i] = post(h, "/v1/run", b)
		}(i, b)
	}
	waitFor(t, "one running and one queued execution", func() bool {
		return srv.Metrics().Inflight() == 1 && srv.Metrics().Queued() == 1
	})

	// Slots are exhausted (1 running + 1 queued): the next distinct
	// request must be rejected immediately with 429 + Retry-After.
	rejected := post(h, "/v1/run", `{"ids":["srvtest"],"compare":true}`)
	if rejected.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429 (body %s)", rejected.Code, rejected.Body.String())
	}
	if ra := rejected.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 response has no Retry-After header")
	}
	if xc := rejected.Header().Get("X-Cache"); xc != "miss" {
		t.Fatalf("429 X-Cache %q, want miss", xc)
	}

	release()
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != 200 {
			t.Fatalf("admitted request %d: code %d (body %s)", i, rec.Code, rec.Body.String())
		}
	}
	// Rejections are never cached: the same request succeeds afterwards.
	retry := post(h, "/v1/run", `{"ids":["srvtest"],"compare":true}`)
	if retry.Code != 200 {
		t.Fatalf("retry after 429: code %d, want 200", retry.Code)
	}
	if srv.Metrics().Requests("/v1/run", 429) != 1 {
		t.Fatalf("429 count %d, want 1", srv.Metrics().Requests("/v1/run", 429))
	}
}

func TestQueuedRequestCancellation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	h := srv.Handler()
	release := holdExtension()
	defer release()
	before := atomic.LoadInt64(&extRuns)

	// A occupies the one execution slot.
	var wg sync.WaitGroup
	var aRec *httptest.ResponseRecorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		aRec = post(h, "/v1/run", `{"ids":["srvtest"]}`)
	}()
	waitFor(t, "A to start", func() bool { return srv.Metrics().Inflight() == 1 })

	// B queues behind A, then its client hangs up.
	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(`{"ids":["srvtest"],"quick":true}`))
		h.ServeHTTP(rec, req.WithContext(ctx))
	}()
	waitFor(t, "B to queue", func() bool { return srv.Metrics().Queued() == 1 })
	cancel()
	select {
	case <-bDone:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled queued request did not return")
	}
	waitFor(t, "B's abandoned execution to drain", func() bool {
		return srv.Metrics().Queued() == 0
	})
	waitFor(t, "the 499 to be recorded", func() bool {
		return srv.Metrics().Requests("/v1/run", StatusClientClosedRequest) == 1
	})

	release()
	wg.Wait()
	if aRec.Code != 200 {
		t.Fatalf("A: code %d, want 200", aRec.Code)
	}
	// B never reached the extension: only A's execution ran.
	if got := atomic.LoadInt64(&extRuns) - before; got != 1 {
		t.Fatalf("extension ran %d times, want 1 (the cancelled request must not execute)", got)
	}
}

func TestHealthzReportsRegistries(t *testing.T) {
	t.Parallel()
	srv := New(Config{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	var body struct {
		Status      string  `json:"status"`
		Experiments int     `json:"experiments"`
		Extensions  int     `json:"extensions"`
		UptimeS     float64 `json:"uptime_s"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if body.Status != "ok" || body.Experiments != len(core.List()) || body.Extensions != len(core.Extensions()) {
		t.Fatalf("healthz = %+v; want ok with %d experiments, %d extensions",
			body, len(core.List()), len(core.Extensions()))
	}
}

// TestInlineSpecsAreRequestScoped: an inline spec is the machine of its
// own request and nothing else. Many distinct inline machines leave the
// registry, /v1/machines and healthz as they were, and a name reused
// with new content runs the new content, byte-equal to what a fresh
// daemon answers.
func TestInlineSpecsAreRequestScoped(t *testing.T) {
	t.Parallel()
	h := New(Config{}).Handler()
	get := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: code %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	healthzMachines := func() int {
		t.Helper()
		var body struct {
			Machines int `json:"machines"`
		}
		if err := json.Unmarshal(get("/v1/healthz"), &body); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return body.Machines
	}
	inline := func(name string, gbps int) string {
		return fmt.Sprintf(`{"ids":["ext-machine"],"quick":true,"spec":{"base":"A64FX","name":%q,"node":{"domain_bandwidth":"%d GB/s"}}}`, name, gbps)
	}
	run := func(h http.Handler, body string) []byte {
		t.Helper()
		rec := post(h, "/v1/run", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("run %s: code %d, body %s", body, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	names, machines, healthz := spec.Names(), get("/v1/machines"), healthzMachines()

	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("scoped-%d", i)
		if body := run(h, inline(name, 100+i)); !bytes.Contains(body, []byte("suite on "+name)) {
			t.Fatalf("%s: body does not name its machine:\n%s", name, body)
		}
	}
	if got := spec.Names(); !reflect.DeepEqual(got, names) {
		t.Errorf("registry names changed: %v, want %v", got, names)
	}
	if got := get("/v1/machines"); !bytes.Equal(got, machines) {
		t.Errorf("/v1/machines changed:\n%s\nwant\n%s", got, machines)
	}
	if got := healthzMachines(); got != healthz {
		t.Errorf("healthz machines = %d, want %d", got, healthz)
	}

	// One name, two machines: each request runs its own spec.
	slow, fast := inline("scoped-twin", 150), inline("scoped-twin", 250)
	slowBody, fastBody := run(h, slow), run(h, fast)
	if bytes.Equal(slowBody, fastBody) {
		t.Fatal("same-name inline specs with different bandwidths returned one body")
	}
	for body, got := range map[string][]byte{slow: slowBody, fast: fastBody} {
		if want := run(New(Config{}).Handler(), body); !bytes.Equal(got, want) {
			t.Errorf("request %s differs from a fresh daemon's answer:\n%s\nwant\n%s", body, got, want)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	t.Parallel()
	srv := New(Config{})
	h := srv.Handler()
	post(h, "/v1/run", `{"ids":["table2"],"quick":true,"format":"json"}`)
	post(h, "/v1/run", `{"ids":["table2"],"quick":true,"format":"json"}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		`a64fxbench_serve_requests_total{endpoint="/v1/run",code="200"} 2`,
		"a64fxbench_serve_cache_hits_total 1",
		"a64fxbench_serve_cache_misses_total 1",
		"a64fxbench_serve_cache_hit_ratio 0.5",
		"a64fxbench_serve_cached_responses 4",
		"a64fxbench_serve_cached_bytes ",
		"a64fxbench_serve_queue_capacity",
		"a64fxbench_serve_request_seconds_bucket",
		`a64fxbench_serve_request_seconds_count{endpoint="/v1/run"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
