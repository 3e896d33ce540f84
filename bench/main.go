// Command bench is the repository's outside-in benchmark. It builds
// cmd/a64fxbench from the checkout, drives the binary only through its
// CLI commands and HTTP endpoints, checks every output against pinned
// SHA-256 digests, and prints the end-to-end metrics of one or all
// workloads (or, with -trace 1, the per-layer metrics of a traced
// replay). It imports nothing from the program, so the same benchmark
// runs unchanged on any commit that keeps that outside surface.
//
// Run it from the repository root through the wrapper, which builds it
// with every cache kept under .bench_build/:
//
//	bash bench/run.sh                            # all four workloads
//	bash bench/run.sh -workload serve-hot -seed 3
//	bash bench/run.sh -workload sweep-quick -trace 1
//	bash bench/run.sh -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. bench/README.md documents the
// workloads, metrics and method.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Paths relative to the repository root, the benchmark's working
// directory.
const (
	buildDir     = ".bench_build"
	programPath  = buildDir + "/bin/a64fxbench"
	expectedPath = "bench/testdata/expected.txt"
	specPath     = "BENCHMARK.json"
)

// runDeadline bounds one workload run after the build; every process
// and request the benchmark starts is cancelled when it passes.
const runDeadline = 170 * time.Second

// metric is one reported metric. The e2e and per-layer tables mirror
// BENCHMARK.json; TestMetricsMatchBenchmarkJSON keeps them in step.
type metric struct {
	name, unit, better string
}

// e2eMetrics are measured with tracing off. Every workload reports all
// of them: an op is one CLI pass for the sweep workloads and one HTTP
// request for the serve workloads.
var e2eMetrics = []metric{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// cpuLayers are the CPU-attribution buckets: one per program package
// (vclock folds into simmpi, paper into core), then the samples with no
// program frame.
var cpuLayers = []string{
	"simmpi", "decomp", "perfmodel", "netmodel", "topo", "congestion",
	"linalg", "sparse", "fft", "hpcg", "minikab", "nekbone", "cosa",
	"castep", "opensbli", "core", "sweep", "serve", "spec", "arch",
	"micro", "metrics", "obs", "telemetry", "units",
	"runtime.gc", "runtime.sched", "net", "other",
}

// stageNames are the serve request stages as the program labels them in
// /metrics; the metric names use underscores.
var stageNames = []string{
	"decode", "cache-lookup", "singleflight-wait", "admission",
	"engine-execute", "render", "write",
}

// layerMetrics are reported by -trace 1 runs.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metric {
	var ms []metric
	for _, l := range cpuLayers {
		ms = append(ms, metric{l + ".cpu_ms", "ms", "lower"}, metric{l + ".cpu_share", "fraction", "lower"})
	}
	ms = append(ms,
		metric{"simmpi.jobs", "count", "lower"},
		metric{"simmpi.rank_jobs", "count", "lower"},
		metric{"simmpi.setup_ms", "ms", "lower"},
		metric{"simmpi.run_pass_ms", "ms", "lower"},
		metric{"simmpi.replay_record_ms", "ms", "lower"},
		metric{"simmpi.report_ms", "ms", "lower"},
		metric{"congestion.replay_solve_ms", "ms", "lower"},
		metric{"core.experiment_self_ms", "ms", "lower"},
		metric{"serve.render_ms", "ms", "lower"},
		metric{"sim.makespan_s", "s", "lower"},
		metric{"telemetry.dropped_spans", "count", "lower"},
		metric{"simmpi.cpu_us_per_rank", "us", "lower"},
		metric{"congestion.ms_per_job", "ms", "lower"},
	)
	for _, st := range stageNames {
		n := "serve." + underscore(st)
		ms = append(ms, metric{n + "_p50_ms", "ms", "lower"}, metric{n + "_p99_ms", "ms", "lower"})
	}
	ms = append(ms,
		metric{"serve.cache_hit_ratio", "fraction", "higher"},
		metric{"serve.coalesced", "count", "higher"},
		metric{"serve.rejected", "count", "lower"},
		metric{"serve.heap_live_mb", "MB", "lower"},
		metric{"trace.overhead_pct", "%", "lower"},
		metric{"trace.samples", "count", "higher"},
		metric{"paper.err_median_pct", "%", "lower"},
		metric{"paper.err_max_pct", "%", "lower"},
	)
	return ms
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	// metrics holds every metric of the run's table (e2e or per-layer).
	metrics map[string]float64
	// extra holds informational numbers printed beside the metrics and
	// saved with -o, but kept out of the result line.
	extra map[string]float64
}

func newResult(table []metric) *result {
	r := &result{metrics: map[string]float64{}, extra: map[string]float64{}}
	for _, m := range table {
		r.metrics[m.name] = 0
	}
	return r
}

// bench is one invocation's shared state.
type bench struct {
	bin     string
	seed    int64
	seconds time.Duration
	check   *checker
}

func main() {
	only := flag.String("workload", "", "workload to run: "+workloadNames()+" (default: all)")
	seed := flag.Int64("seed", 1, "seed the generated requests are drawn from")
	seconds := flag.Int("seconds", 15, "minimum measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced replay reporting per-layer metrics")
	out := flag.String("o", "", "append each run's record to this results file")
	update := flag.Bool("update", false, "pin the observed output digests in "+expectedPath+" instead of checking them")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare old.json new.json")
		}
		if err := compareFiles(os.Stdout, specPath, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	selected := workloads
	if *only != "" {
		w, ok := findWorkload(*only)
		if !ok {
			fatalf("unknown workload %q (want %s)", *only, workloadNames())
		}
		selected = []workload{w}
	}

	check, err := loadChecker(expectedPath, *update)
	if err != nil {
		fatalf("%v", err)
	}
	if err := buildProgram(); err != nil {
		fatalf("%v", err)
	}
	b := &bench{bin: programPath, seed: *seed, seconds: time.Duration(*seconds) * time.Second, check: check}
	table := e2eMetrics
	if *trace == 1 {
		table = layerMetrics
	}

	line := resultLine{Metrics: map[string]valueUnit{}}
	for _, w := range selected {
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		check.reset()
		run := w.load.e2e
		if *trace == 1 {
			run = w.load.traced
		}
		res, err := run(ctx, b)
		cancel()
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		res.attempted, res.failed = check.counts()
		printReport(os.Stdout, w.name, table, res)
		if *out != "" {
			if err := appendRecord(*out, w.name, *seed, *seconds, *trace, table, res); err != nil {
				fatalf("%v", err)
			}
		}
		line.Attempted += res.attempted
		line.Failed += res.failed
		for _, m := range table {
			name := m.name
			if len(selected) > 1 {
				name = w.name + "." + m.name
			}
			line.Metrics[name] = valueUnit{res.metrics[m.name], m.unit}
		}
	}
	line.Correct = line.Failed == 0
	if *update && line.Correct {
		if err := check.save(expectedPath); err != nil {
			fatalf("%v", err)
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(enc))
	if !line.Correct {
		os.Exit(1)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// buildProgram compiles the checkout's CLI into .bench_build/bin.
func buildProgram() error {
	if err := os.MkdirAll(filepath.Dir(programPath), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", programPath, "./cmd/a64fxbench")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building ./cmd/a64fxbench: %w", err)
	}
	return nil
}

// printReport writes one workload's metrics, one per line with unit,
// then the informational extras.
func printReport(w io.Writer, name string, table []metric, res *result) {
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed (error_ratio %g)\n", name, res.attempted, res.failed, ratio)
	for _, m := range table {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, res.metrics[m.name], m.unit)
	}
	keys := make([]string, 0, len(res.extra))
	for k := range res.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (info) %-29s %14.6g\n", k, res.extra[k])
	}
}

// record is one run as a results file stores it.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     int                  `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
	Extra     map[string]float64   `json:"extra,omitempty"`
	NProc     int                  `json:"nproc"`
	Go        string               `json:"go"`
}

type resultsFile struct {
	Runs []record `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return rf, nil
	}
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendRecord adds one run to a results file, so that repeated
// invocations accumulate the runs -compare reads.
func appendRecord(path, workload string, seed int64, seconds, trace int, table []metric, res *result) error {
	rf, err := readResults(path)
	if err != nil {
		return err
	}
	rec := record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]valueUnit{}, Extra: res.extra,
		NProc: runtime.NumCPU(), Go: runtime.Version(),
	}
	for _, m := range table {
		rec.Metrics[m.name] = valueUnit{res.metrics[m.name], m.unit}
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
