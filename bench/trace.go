package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The traced run replays a workload against a daemon started with
// -debug-addr and collects, while it runs, one-second CPU profiles from
// /debug/pprof/profile; afterwards it reads the span trees of
// /v1/debug/slow, the stage histograms of /metrics and the live heap.
// It does not read /v1/counters: the virtual PMU needs over 1 GB per
// multi-node experiment.

// profiler captures back-to-back one-second CPU profiles until stopped.
// With alternate set it leaves a one-second gap before each capture, so
// ops started inside and outside captures can be compared.
type profiler struct {
	quit   chan struct{}
	done   chan struct{}
	active atomic.Bool
	files  []string
	err    error
}

func startProfiler(ctx context.Context, d *daemon, dir string, alternate bool) *profiler {
	p := &profiler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for n := 0; ; n++ {
			if alternate {
				select {
				case <-p.quit:
					return
				case <-time.After(time.Second):
				}
			}
			select {
			case <-p.quit:
				return
			default:
			}
			p.active.Store(true)
			data, err := get(ctx, d.debug+"/debug/pprof/profile?seconds=1")
			p.active.Store(false)
			if err == nil {
				name := filepath.Join(dir, fmt.Sprintf("cpu-%03d.pb.gz", n))
				err = os.WriteFile(name, data, 0o644)
				p.files = append(p.files, name)
			}
			if err != nil {
				p.err = err
				return
			}
		}
	}()
	return p
}

// stop waits for the running capture to finish and returns the files.
func (p *profiler) stop() ([]string, error) {
	close(p.quit)
	<-p.done
	return p.files, p.err
}

// tracedRun is the state the traced replays of every workload share.
type tracedRun struct {
	res *result
	d   *daemon
	dir string // profile files, removed by close
}

func newTracedRun() (*tracedRun, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "profiles-")
	if err != nil {
		return nil, err
	}
	return &tracedRun{res: newResult(layerMetrics), dir: dir}, nil
}

func (t *tracedRun) close() {
	if t.d != nil {
		t.d.stop()
	}
	os.RemoveAll(t.dir)
}

func (s sweepLoad) traced(ctx context.Context, b *bench) (*result, error) {
	t, err := newTracedRun()
	if err != nil {
		return nil, err
	}
	defer t.close()

	// The untraced reference pass: the overhead baseline, and the ids
	// to replay, in output order.
	ref, err := b.cli(ctx, s.args...)
	if err != nil {
		return nil, err
	}
	b.check.op(b.check.matches(s.key, ref.stdout), s.key+" stdout differs from the pinned digest")
	ids, err := artifactIDs(ref.stdout)
	if err != nil {
		return nil, err
	}

	if t.d, _, err = startDaemon(ctx, b.bin, 1, true); err != nil {
		return nil, err
	}
	prof := startProfiler(ctx, t.d, t.dir, false)
	var bodies []byte
	var replay time.Duration
	for _, id := range ids {
		req := runRequest{IDs: []string{id}, Quick: true, Congestion: s.congestion, Format: "json"}
		start := time.Now()
		status, body, err := post(ctx, controlClient, t.d.api+"/v1/run", req.body())
		replay += time.Since(start)
		if err != nil {
			prof.stop()
			return nil, err
		}
		b.check.op(status == 200, "replay of "+id+" failed")
		bodies = append(bodies, body...)
	}
	files, err := prof.stop()
	if err != nil {
		return nil, err
	}
	// The per-id bodies concatenate to the CLI's stdout.
	b.check.op(b.check.matches(s.key, bodies), s.key+" replay bodies differ from the pinned digest")

	if err := t.collect(ctx); err != nil {
		return nil, err
	}
	if err := t.attribute(ctx, files); err != nil {
		return nil, err
	}
	m := t.res.metrics
	if m["simmpi.rank_jobs"] > 0 {
		m["simmpi.cpu_us_per_rank"] = 1000 * m["simmpi.cpu_ms"] / m["simmpi.rank_jobs"]
	}
	m["trace.overhead_pct"] = 100 * (replay.Seconds()/ref.wall.Seconds() - 1)
	t.res.extra["trace.replay_s"] = replay.Seconds()
	t.res.extra["trace.reference_s"] = ref.wall.Seconds()
	return t.res, recordPaperError(m, bodies)
}

func (s serveLoad) traced(ctx context.Context, b *bench) (*result, error) {
	t, err := newTracedRun()
	if err != nil {
		return nil, err
	}
	defer t.close()
	sv, err := s.start(ctx, b, true)
	if err != nil {
		return nil, err
	}
	t.d = sv.d
	prof := startProfiler(ctx, t.d, t.dir, true)
	samples, _ := closedLoop(ctx, b.seconds, func(i int) { sv.op(ctx, i) }, prof.active.Load, nil)
	files, err := prof.stop()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err := t.collect(ctx); err != nil {
		return nil, err
	}
	if err := t.attribute(ctx, files); err != nil {
		return nil, err
	}
	var on, off []float64
	for _, s := range samples {
		if s.profiled {
			on = append(on, ms(s.latency))
		} else {
			off = append(off, ms(s.latency))
		}
	}
	if len(on) > 0 && len(off) > 0 {
		t.res.metrics["trace.overhead_pct"] = 100 * (mean(on)/mean(off) - 1)
	}
	t.res.extra["trace.ops_profiled"] = float64(len(on))
	t.res.extra["trace.ops_unprofiled"] = float64(len(off))
	return t.res, recordPaperError(t.res.metrics, sv.artifacts)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// artifactIDs lists the ids of a JSON artifact stream in order.
func artifactIDs(stream []byte) ([]string, error) {
	var ids []string
	dec := json.NewDecoder(bytes.NewReader(stream))
	for {
		var art struct {
			ID string `json:"id"`
		}
		if err := dec.Decode(&art); errors.Is(err, io.EOF) {
			return ids, nil
		} else if err != nil {
			return nil, fmt.Errorf("artifact JSON: %w", err)
		}
		ids = append(ids, art.ID)
	}
}

// collect reads the daemon's span trees, stage histograms and live heap.
func (t *tracedRun) collect(ctx context.Context) error {
	slow, err := get(ctx, t.d.api+"/v1/debug/slow?format=json")
	if err != nil {
		return err
	}
	if err := spanStats(t.res.metrics, slow); err != nil {
		return err
	}
	text, err := get(ctx, t.d.api+"/metrics")
	if err != nil {
		return err
	}
	stages, err := stageStats(string(text))
	if err != nil {
		return err
	}
	for k, v := range stages {
		t.res.metrics[k] = v
	}
	heap, err := get(ctx, t.d.debug+"/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return err
	}
	live, err := heapAlloc(heap)
	t.res.metrics["serve.heap_live_mb"] = live / (1 << 20)
	return err
}

// attribute merges the profiles with `go tool pprof -traces` and
// charges every sample to a layer.
func (t *tracedRun) attribute(ctx context.Context, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("no CPU profile captured")
	}
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	cpu, err := attributeCPU(string(out))
	if err != nil {
		return err
	}
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	if total == 0 {
		return fmt.Errorf("CPU profiles hold no samples")
	}
	for _, l := range cpuLayers {
		t.res.metrics[l+".cpu_ms"] = cpu[l]
		t.res.metrics[l+".cpu_share"] = cpu[l] / total
	}
	// The runtime samples CPU profiles at 100 Hz.
	t.res.metrics["trace.samples"] = total / 10
	return nil
}

const separator = "-----------+"

// attributeCPU reads `go tool pprof -traces` text and returns CPU
// milliseconds per layer (see layerOf).
func attributeCPU(traces string) (map[string]float64, error) {
	out := map[string]float64{}
	var value float64
	var frames []string
	inBlock := false
	flush := func() {
		if inBlock && len(frames) > 0 {
			out[layerOf(frames)] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(traces))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, separator) {
			flush()
			inBlock = true
			value = -1
			continue
		}
		f := strings.Fields(line)
		if !inBlock || len(f) == 0 {
			continue
		}
		if value < 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			value = ms(d)
			f = f[1:]
		}
		if len(f) == 0 || strings.Contains(f[0], ":[") { // a label line
			continue
		}
		frames = append(frames, f[0])
	}
	flush()
	return out, sc.Err()
}

const repoPrefix = "a64fxbench/internal/"

// layerOf charges one stack (leaf first) to a layer: the first program
// package walking up from the leaf, so runtime work (locks, channels,
// allocation) lands on the layer that asked for it. Stacks with no
// program frame go to runtime.gc (background GC workers),
// runtime.sched (rooted at runtime.mcall), net (net/http and the
// network poller) or other.
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, repoPrefix)
		if !ok {
			continue
		}
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		switch pkg {
		case "vclock":
			return "simmpi"
		case "paper":
			return "core"
		}
		if slices.Contains(cpuLayers, pkg) {
			return pkg
		}
		return "other"
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return "runtime.gc"
		}
	}
	if frames[len(frames)-1] == "runtime.mcall" {
		return "runtime.sched"
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") || strings.HasPrefix(f, "net.") || strings.HasPrefix(f, "internal/poll.") {
			return "net"
		}
	}
	return "other"
}

// spanNode is the part of a /v1/debug/slow span tree the benchmark reads.
type spanNode struct {
	Name       string         `json:"name"`
	Clock      string         `json:"clock"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*spanNode    `json:"children"`
}

// spanStats sums the span metrics over the flight recorder's retained
// successful /v1/run requests (its 32 slowest).
func spanStats(m map[string]float64, snapshot []byte) error {
	var snap struct {
		Slowest []struct {
			Op     string    `json:"op"`
			Status int       `json:"status"`
			Spans  *spanNode `json:"spans"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(snapshot, &snap); err != nil {
		return fmt.Errorf("/v1/debug/slow: %w", err)
	}
	wallMS := map[string]string{
		"setup": "simmpi.setup_ms", "run-pass": "simmpi.run_pass_ms",
		"replay-record": "simmpi.replay_record_ms", "report": "simmpi.report_ms",
		"replay-solve": "congestion.replay_solve_ms", "render": "serve.render_ms",
	}
	solves := 0
	var walk func(n *spanNode)
	walk = func(n *spanNode) {
		switch {
		case n.Clock == "virtual":
			if n.Name == "virtual-makespan" {
				m["sim.makespan_s"] += float64(n.DurationNS) / 1e9
			}
			return
		case strings.HasPrefix(n.Name, "job:"):
			m["simmpi.jobs"]++
			if r, ok := n.Attrs["ranks"].(float64); ok {
				m["simmpi.rank_jobs"] += r
			}
		case strings.HasPrefix(n.Name, "artifact:"):
			m["core.experiment_self_ms"] += float64(n.DurationNS-jobTime(n)) / 1e6
		case wallMS[n.Name] != "":
			m[wallMS[n.Name]] += float64(n.DurationNS) / 1e6
			if n.Name == "replay-solve" {
				solves++
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, e := range snap.Slowest {
		if e.Op != "/v1/run" || e.Status != 200 || e.Spans == nil {
			continue
		}
		if d, ok := e.Spans.Attrs["dropped_spans"].(float64); ok {
			m["telemetry.dropped_spans"] += d
		}
		walk(e.Spans)
	}
	if solves > 0 {
		m["congestion.ms_per_job"] = m["congestion.replay_solve_ms"] / float64(solves)
	}
	return nil
}

// jobTime is the wall time of the job spans below n (jobs do not nest).
func jobTime(n *spanNode) int64 {
	var t int64
	for _, c := range n.Children {
		if strings.HasPrefix(c.Name, "job:") {
			t += c.DurationNS
		} else if c.Clock != "virtual" {
			t += jobTime(c)
		}
	}
	return t
}

// stageStats reads the serve stage histograms and cache counters from
// a /metrics exposition.
func stageStats(text string) (map[string]float64, error) {
	samples, err := parseProm(text)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, st := range stageNames {
		n := "serve." + underscore(st)
		out[n+"_p50_ms"] = 1000 * histogramQuantile(samples, "a64fxbench_serve_stage_seconds", "stage", st, 0.50)
		out[n+"_p99_ms"] = 1000 * histogramQuantile(samples, "a64fxbench_serve_stage_seconds", "stage", st, 0.99)
	}
	out["serve.cache_hit_ratio"] = promValue(samples, "a64fxbench_serve_cache_hit_ratio")
	out["serve.coalesced"] = promValue(samples, "a64fxbench_serve_flight_coalesced_total")
	out["serve.rejected"] = promValue(samples, "a64fxbench_serve_rejected_total")
	return out, nil
}

// heapAlloc reads HeapAlloc (bytes) from a debug=1 heap profile taken
// after a GC: the live heap.
func heapAlloc(profile []byte) (float64, error) {
	for _, line := range strings.Split(string(profile), "\n") {
		if v, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("heap profile has no HeapAlloc line")
}
