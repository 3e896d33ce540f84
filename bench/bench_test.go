package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
	// The p99 of 1,000 ops has exactly ten samples beyond it.
	ops := make([]float64, 1000)
	for i := range ops {
		ops[i] = float64(i + 1)
	}
	if got := percentile(ops, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestTailLatencyIsMedianOfBlockP99s(t *testing.T) {
	var xs []float64
	for b := 0; b < 3; b++ { // block b's p99 is 990+b
		for i := 1; i <= blockSize; i++ {
			xs = append(xs, float64(i+b))
		}
	}
	xs = append(xs, 1e9) // a partial tail joins the last block
	if got := tailLatency(xs); got != 991 {
		t.Errorf("tailLatency = %g, want 991", got)
	}
	if got := tailLatency([]float64{3, 1, 2}); got != 3 {
		t.Errorf("tailLatency of a short run = %g, want its maximum 3", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4) and median.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4, 4.5}, 2.375, 4, 6.75},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.xs), c.med) {
			t.Errorf("%v: q1 %g median %g q3 %g, want %g %g %g", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
}

func TestAttributeCPU(t *testing.T) {
	data, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := attributeCPU(string(data))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"simmpi":        650, // a leaf mutex under simmpi, and vclock
		"decomp":        200,
		"runtime.sched": 100, // rooted at runtime.mcall
		"runtime.gc":    80,  // gcBgMarkWorker
		"net":           120,
		"core":          90, // paper, past the main frame
		"sweep":         30, // a sub-package charges its parent
		"other":         10,
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for l, ms := range want {
		if !near(got[l], ms) {
			t.Errorf("%s = %g ms, want %g", l, got[l], ms)
		}
	}
}

func TestStageQuantilesFromHistogram(t *testing.T) {
	data, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := stageStats(string(data))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"serve.decode_p50_ms":         0.03125, // 2.5e-5 + 2.5e-5 × 10/40 s
		"serve.decode_p99_ms":         0.0975,  // 5e-5 + 5e-5 × 19/20 s
		"serve.engine_execute_p50_ms": 25,
		"serve.engine_execute_p99_ms": 25, // in +Inf: the largest finite bound
		"serve.render_p50_ms":         0,  // no observations
		"serve.cache_hit_ratio":       0.75,
		"serve.coalesced":             3,
	} {
		if !near(got[name], want) {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
}

func TestPaperError(t *testing.T) {
	data, err := os.ReadFile("testdata/artifacts.json")
	if err != nil {
		t.Fatal(err)
	}
	med, worst, cells, err := paperError(data)
	if err != nil {
		t.Fatal(err)
	}
	// Errors 10%, 5% and 25%; zero-paper, text and unreferenced cells skip.
	if cells != 3 || !near(med, 10) || !near(worst, 25) {
		t.Errorf("paperError = median %g max %g over %d cells, want 10 25 over 3", med, worst, cells)
	}
	ids, err := artifactIDs(data)
	if err != nil || len(ids) != 2 || ids[0] != "table3" || ids[1] != "table2" {
		t.Errorf("artifactIDs = %v, %v", ids, err)
	}
}

func TestSpanStats(t *testing.T) {
	slow := `{"slowest":[
	 {"op":"/v1/run","status":200,"spans":{"name":"request /v1/run","duration_ns":9000000,"attrs":{"dropped_spans":2},"children":[
	  {"name":"singleflight-wait","duration_ns":8000000,"children":[
	   {"name":"engine-execute","duration_ns":7000000,"children":[
	    {"name":"artifact:table4","duration_ns":6000000,"children":[
	     {"name":"job:a","duration_ns":4000000,"attrs":{"ranks":96},"children":[
	      {"name":"setup","duration_ns":1000},
	      {"name":"replay-record","duration_ns":1000000},
	      {"name":"replay-solve","duration_ns":500000},
	      {"name":"run-pass","duration_ns":2000000},
	      {"name":"report","duration_ns":100000},
	      {"name":"virtual-makespan","clock":"virtual","duration_ns":3000000000}]}]}]},
	   {"name":"render","duration_ns":200000}]}]}},
	 {"op":"/v1/healthz","status":200,"spans":{"name":"request /v1/healthz","children":[{"name":"job:x","attrs":{"ranks":5}}]}}]}`
	m := map[string]float64{}
	if err := spanStats(m, []byte(slow)); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"simmpi.jobs": 1, "simmpi.rank_jobs": 96, "simmpi.setup_ms": 0.001,
		"simmpi.replay_record_ms": 1, "congestion.replay_solve_ms": 0.5,
		"congestion.ms_per_job": 0.5, "simmpi.run_pass_ms": 2, "simmpi.report_ms": 0.1,
		"core.experiment_self_ms": 2, "serve.render_ms": 0.2, "sim.makespan_s": 3,
		"telemetry.dropped_spans": 2,
	} {
		if !near(m[name], want) {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}

func TestGeneratedRequestsAreSeeded(t *testing.T) {
	names := map[string]bool{}
	differs := false
	for i := 0; i < 500; i++ {
		a, b := newColdRequest(1, i), newColdRequest(1, i)
		if !bytes.Equal(a.body, b.body) || a.key != b.key {
			t.Fatalf("op %d: seed 1 gave two different requests", i)
		}
		if names[a.name] {
			t.Fatalf("op %d: machine name %s repeats", i, a.name)
		}
		names[a.name] = true
		other := newColdRequest(2, i)
		if bytes.Equal(other.body, a.body) {
			t.Fatalf("op %d: seeds 1 and 2 gave the same request", i)
		}
		names[other.name] = true
		differs = differs || other.key != a.key
		var req runRequest
		if err := json.Unmarshal(a.body, &req); err != nil || req.IDs[0] != "ext-machine" || !req.Quick {
			t.Fatalf("op %d: bad body %s: %v", i, a.body, err)
		}
	}
	if !differs {
		t.Error("seeds 1 and 2 drew the same bandwidth and model sequence")
	}
	keys := map[string]bool{}
	for i := 0; i < 500; i++ {
		keys[newColdRequest(1, i).key] = true
	}
	if len(keys) != len(coldBandwidths)*len(coldModels) {
		t.Errorf("500 ops drew %d of the %d pinned bandwidth × model bodies", len(keys), len(coldBandwidths)*len(coldModels))
	}

	h1, h2, h3 := hotOrder(1, 36), hotOrder(1, 36), hotOrder(2, 36)
	seen := map[int]bool{}
	same := true
	for j := range h1 {
		if h1[j] != h2[j] {
			t.Fatalf("hot order of seed 1 differs at %d", j)
		}
		same = same && h1[j] == h3[j]
		seen[h1[j]] = true
	}
	if same || len(seen) != 36 {
		t.Errorf("hot order: seeds 1 and 2 equal %v, %d of 36 keys drawn", same, len(seen))
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name         string
		old, new     []float64
		higherBetter bool
		want         string
	}{
		{"same runs", base, base, false, "unchanged"},
		{"every pair faster", base, scale(base, 0.8), false, "improved"},
		{"20% slower", base, scale(base, 1.2), false, "regressed"},
		{"5% slower within bound", base, scale(base, 1.05), false, "unchanged"},
		{"higher is better and fell", base, scale(base, 0.8), true, "regressed"},
		{"higher is better and rose", base, scale(base, 1.2), true, "improved"},
		{"spread wider than bound", base, noisy, false, "unresolved"},
	} {
		got := compareMetric(c.old, c.new, c.higherBetter, 0.1)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s (won %d/%d), want %s", c.name, got.verdict, got.wins, got.pairs, c.want)
		}
	}
	// Ties count for neither side.
	if c := compareMetric(base, base, false, 0.1); c.wins != 0 || c.pairs != 10 {
		t.Errorf("identical runs: won %d of %d pairs, want 0 of 10", c.wins, c.pairs)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (entry{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark reports %+v", what, i, got[i], m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
}
