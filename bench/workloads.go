package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. Its load's e2e
// measures it with tracing off; traced replays it for the per-layer
// metrics.
type workload struct {
	name, why string
	load      interface {
		e2e(context.Context, *bench) (*result, error)
		traced(context.Context, *bench) (*result, error)
	}
}

// workloads is every workload in run order. The why strings match
// BENCHMARK.json.
var workloads = []workload{
	{name: "sweep-quick",
		why: "the paper reproduction users run: all -quick -j 1, three fresh processes; simmpi dispatch dominates, no congestion, topo or serve",
		load: sweepLoad{
			key:       "sweep-quick",
			args:      []string{"all", "-quick", "-j", "1", "-format", "json"},
			minPasses: 3,
		}},
	// table7 and table10 are left out: each takes 7–8 s when congested.
	{name: "sweep-congested",
		why: "the same simmpi code priced through two-pass replay and the congestion max-min solver on five multi-node ids, two fresh processes",
		load: sweepLoad{
			key: "sweep-congested",
			args: []string{"run", "table4", "fig2", "fig4", "hpcg-weak", "ext-network",
				"-quick", "-j", "1", "-congestion", "-format", "json"},
			minPasses:  2,
			congestion: true,
		}},
	{name: "serve-hot",
		why:  "the serve read path: 36 warmed keys requested closed loop over one connection in seeded order; decode, cache hit, write, no simulation",
		load: serveLoad{start: startHot}},
	{name: "serve-cold",
		why:  "the serve write path: every request a distinct seeded inline A64FX overlay running ext-machine under roofline and ECM; spec compile, registry growth, miss",
		load: serveLoad{start: startCold}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// listRepeats is how many `list` invocations time a sweep's set-up;
// each takes a few milliseconds.
const listRepeats = 15

// runRequest is the JSON body of /v1/run.
type runRequest struct {
	IDs        []string        `json:"ids"`
	Quick      bool            `json:"quick"`
	Congestion bool            `json:"congestion,omitempty"`
	Format     string          `json:"format"`
	Model      string          `json:"model,omitempty"`
	Spec       json.RawMessage `json:"spec,omitempty"`
}

func (r runRequest) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain data always encodes
	}
	return b
}

// cliRun is one finished CLI process.
type cliRun struct {
	stdout    []byte
	wall, cpu time.Duration
	rssMB     float64
}

// cli runs the program once with args and waits for it.
func (b *bench) cli(ctx context.Context, args ...string) (cliRun, error) {
	cmd := exec.CommandContext(ctx, b.bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := cliRun{stdout: out.Bytes(), wall: time.Since(start)}
	if cmd.ProcessState != nil {
		r.cpu, r.rssMB = rusage(cmd.ProcessState)
	}
	if err != nil {
		lines := strings.Split(strings.TrimSpace(errb.String()), "\n")
		return r, fmt.Errorf("a64fxbench %s: %w: %s", strings.Join(args, " "), err, lines[len(lines)-1])
	}
	return r, nil
}

// sweepLoad is a batch workload: one op is one fresh CLI process
// rendering a set of artifacts as JSON.
type sweepLoad struct {
	key        string // expected-digest key of the stdout
	args       []string
	minPasses  int
	congestion bool
}

func (s sweepLoad) e2e(ctx context.Context, b *bench) (*result, error) {
	res := newResult(e2eMetrics)
	host := &hostSpeed{}
	host.sample()
	var setup []float64
	for i := 0; i < listRepeats; i++ {
		r, err := b.cli(ctx, "list")
		if err != nil {
			return nil, err
		}
		if !bytes.Contains(r.stdout, []byte("table1")) {
			return nil, fmt.Errorf("list does not name table1")
		}
		setup = append(setup, r.wall.Seconds())
	}

	var walls []float64
	var cpu time.Duration
	var rss float64
	var artifacts []byte
	start := time.Now()
	for len(walls) < s.minPasses || time.Since(start) < b.seconds {
		host.sample()
		r, err := b.cli(ctx, s.args...)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		what := s.key + " stdout differs from the pinned digest"
		if err != nil {
			what = err.Error()
		}
		if b.check.op(err == nil && b.check.matches(s.key, r.stdout), what) && artifacts == nil {
			artifacts = r.stdout
		}
		walls = append(walls, ms(r.wall))
		cpu += r.cpu
		rss = max(rss, r.rssMB)
	}
	host.sample()
	total := 0.0
	for _, w := range walls {
		total += w
	}
	res.metrics["setup_s"] = median(setup)
	res.metrics["latency_p50_ms"] = percentile(walls, 50)
	res.metrics["latency_p99_ms"] = tailLatency(walls)
	res.metrics["ops_per_s"] = float64(len(walls)) / (total / 1000)
	res.metrics["cpu_ms_per_op"] = ms(cpu) / float64(len(walls))
	res.metrics["max_rss_mb"] = rss
	host.normalize(res)
	return res, recordPaperError(res.extra, artifacts)
}

// recordPaperError stores the paper error of a JSON artifact stream as
// paper.err_median_pct and paper.err_max_pct: extras of an end-to-end
// run, metrics of a traced one.
func recordPaperError(into map[string]float64, artifacts []byte) error {
	if artifacts == nil {
		return nil
	}
	med, worst, _, err := paperError(artifacts)
	into["paper.err_median_pct"], into["paper.err_max_pct"] = med, worst
	return err
}

// served is a daemon brought to the state a timed phase starts from.
type served struct {
	d     *daemon
	setup time.Duration
	// op performs closed-loop op i and checks its output.
	op func(ctx context.Context, i int)
	// artifacts are JSON-format artifact bodies seen during set-up,
	// for the paper error.
	artifacts []byte
}

// serveLoad is a serving workload: one op is one HTTP request.
type serveLoad struct {
	// start brings up one daemon, with a pprof listener when debug is
	// set.
	start func(ctx context.Context, b *bench, debug bool) (*served, error)
}

// max_rss_mb of a serve run is the largest peak of its daemons. The
// timed daemon's peak is read after its first blockSize ops, so that
// serve-cold's registry growth is measured over a fixed op count
// rather than over however many ops the host's speed allowed.
func (s serveLoad) e2e(ctx context.Context, b *bench) (*result, error) {
	res := newResult(e2eMetrics)
	host := &hostSpeed{}
	var setups []float64
	var rss float64
	var sv *served
	for i := 0; i < setupRepeats; i++ {
		host.sample()
		if sv != nil {
			peak, err := sv.d.peakRSS()
			sv.d.stop()
			if err != nil {
				return nil, err
			}
			rss = max(rss, peak)
		}
		var err error
		if sv, err = s.start(ctx, b, false); err != nil {
			return nil, err
		}
		setups = append(setups, sv.setup.Seconds())
	}
	defer sv.d.stop()
	host.sample()

	cpu0, err := sv.d.cpuTime()
	if err != nil {
		return nil, err
	}
	var timedPeak float64
	var peakErr error
	op := func(i int) {
		sv.op(ctx, i)
		if i == blockSize-1 {
			timedPeak, peakErr = sv.d.peakRSS()
		}
	}
	samples, wall := closedLoop(ctx, b.seconds, op, nil, host.sample)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	cpu1, err := sv.d.cpuTime()
	if err != nil {
		return nil, err
	}
	if len(samples) < blockSize {
		timedPeak, peakErr = sv.d.peakRSS()
	}
	if peakErr != nil {
		return nil, peakErr
	}
	rss = max(rss, timedPeak)
	host.sample()
	lat := latenciesMS(samples)
	res.metrics["setup_s"] = median(setups)
	res.metrics["latency_p50_ms"] = percentile(lat, 50)
	res.metrics["latency_p99_ms"] = tailLatency(lat)
	res.metrics["ops_per_s"] = float64(len(samples)) / wall.Seconds()
	res.metrics["cpu_ms_per_op"] = ms(cpu1-cpu0) / float64(len(samples))
	res.metrics["max_rss_mb"] = rss
	host.normalize(res)

	text, err := get(ctx, sv.d.api+"/metrics")
	if err != nil {
		return nil, err
	}
	stages, err := stageStats(string(text))
	if err != nil {
		return nil, err
	}
	for k, v := range stages {
		res.extra[k] = v
	}
	return res, recordPaperError(res.extra, sv.artifacts)
}

// hotIDs are the nine single-node ids; with hotFormats they make the
// 36 keys serve-hot warms and then requests.
var (
	hotIDs     = []string{"table1", "table2", "table3", "table5", "table6", "fig3", "table8", "table9", "fig5"}
	hotFormats = []string{"text", "chart", "json", "csv"}
)

type hotKey struct {
	name string // expected-digest key
	body []byte
	json bool
}

func hotKeys() []hotKey {
	var keys []hotKey
	for _, id := range hotIDs {
		for _, f := range hotFormats {
			keys = append(keys, hotKey{
				name: "hot/" + id + "/" + f,
				body: runRequest{IDs: []string{id}, Quick: true, Format: f}.body(),
				json: f == "json",
			})
		}
	}
	return keys
}

// hotOrder is the seeded key order of one block of hot requests; the
// timed phase repeats it.
func hotOrder(seed int64, keys int) []int {
	order := make([]int, blockSize)
	for j := range order {
		order[j] = int(mix(seed, 1, uint64(j)) % uint64(keys))
	}
	return order
}

// startHot starts a daemon and warms every hot key; the set-up time
// includes the warm requests.
func startHot(ctx context.Context, b *bench, debug bool) (*served, error) {
	start := time.Now()
	d, _, err := startDaemon(ctx, b.bin, 2, debug)
	if err != nil {
		return nil, err
	}
	keys := hotKeys()
	warm := make([][]byte, len(keys))
	var artifacts []byte
	for i, k := range keys {
		status, body, err := post(ctx, controlClient, d.api+"/v1/run", k.body)
		if err != nil {
			d.stop()
			return nil, err
		}
		b.check.op(status == 200 && b.check.matches(k.name, body), k.name+" warm body differs from the pinned digest")
		warm[i] = body
		if k.json {
			artifacts = append(artifacts, body...)
		}
	}
	setup := time.Since(start)
	order := hotOrder(b.seed, len(keys))
	url := d.api + "/v1/run"
	op := func(ctx context.Context, i int) {
		k := order[i%len(order)]
		status, body, err := post(ctx, loadClient, url, keys[k].body)
		// The key names the failure: a hot response must equal its warm body.
		b.check.op(err == nil && status == 200 && bytes.Equal(body, warm[k]), keys[k].name)
	}
	return &served{d: d, setup: setup, op: op, artifacts: artifacts}, nil
}

// coldBandwidths are the domain bandwidths (GB/s) a cold request's
// overlay draws from; each with each model has a pinned body digest.
var coldBandwidths = []int{150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250, 260}

var coldModels = []string{"roofline", "ecm"}

// coldRequest is cold op i of a seed.
type coldRequest struct {
	name string // the overlay machine's name, unique per seed and op
	key  string // expected-digest key of the body with name replaced by NAME
	body []byte
}

func newColdRequest(seed int64, i int) coldRequest {
	name := fmt.Sprintf("bench-%d-%d", seed, i)
	bw := coldBandwidths[mix(seed, 2, uint64(i))%uint64(len(coldBandwidths))]
	model := coldModels[i%len(coldModels)]
	spec := fmt.Sprintf(`{"base":"A64FX","name":%q,"node":{"domain_bandwidth":"%d GB/s"}}`, name, bw)
	return coldRequest{
		name: name,
		key:  fmt.Sprintf("cold/%d/%s", bw, model),
		body: runRequest{IDs: []string{"ext-machine"}, Quick: true, Format: "json", Model: model, Spec: json.RawMessage(spec)}.body(),
	}
}

func startCold(ctx context.Context, b *bench, debug bool) (*served, error) {
	d, setup, err := startDaemon(ctx, b.bin, 2, debug)
	if err != nil {
		return nil, err
	}
	url := d.api + "/v1/run"
	op := func(ctx context.Context, i int) {
		r := newColdRequest(b.seed, i)
		status, body, err := post(ctx, loadClient, url, r.body)
		ok := err == nil && status == 200 &&
			bytes.Contains(body, []byte("suite on "+r.name)) &&
			b.check.matches(r.key, bytes.ReplaceAll(body, []byte(r.name), []byte("NAME")))
		b.check.op(ok, r.name+" response is wrong")
	}
	return &served{d: d, setup: setup, op: op}, nil
}

// mix is SplitMix64 over (seed, stream, i): the seeded, order-free
// random source every generated input draws from.
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + stream<<40 + i + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
