// Package sweep executes sets of experiments concurrently: a bounded
// worker pool runs any mix of paper artifacts and extension ablations in
// parallel, with per-experiment timing, an artifact cache keyed by
// (id, Options) so repeated renders never recompute, and cooperative
// cancellation through context.Context (first error under FailFast, or an
// external interrupt).
//
// Every experiment is a pure function of its Options — the simulation's
// virtual clocks make results independent of real scheduling — so a
// parallel sweep produces artifacts byte-identical to a sequential one.
// The golden subpackage turns that promise into a regression gate.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"a64fxbench/internal/core"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/telemetry"
)

// Result is the outcome of one experiment in a sweep.
type Result struct {
	// ID is the experiment id as requested.
	ID string
	// Artifact is the completed result; nil when Err is set.
	Artifact *core.Artifact
	// Err reports a lookup or execution failure, or context.Canceled /
	// context.DeadlineExceeded when the sweep was cancelled before this
	// experiment started.
	Err error
	// Elapsed is the wall-clock execution time. Cache hits report the
	// (near-zero) lookup time of the cached artifact.
	Elapsed time.Duration
	// Cached reports whether the artifact came from the engine's cache.
	Cached bool
}

// Skipped reports whether the experiment never ran because the sweep was
// cancelled first (as opposed to failing on its own).
func (r Result) Skipped() bool {
	return errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded)
}

// Lookup resolves an id against the paper experiments first, then the
// extension registry.
func Lookup(id string) (*core.Experiment, error) {
	if e, err := core.Get(id); err == nil {
		return e, nil
	}
	if e, err := core.GetExtension(id); err == nil {
		return e, nil
	}
	return nil, fmt.Errorf("sweep: unknown experiment or extension %q", id)
}

// cacheKey identifies one cached execution. The key carries only the
// artifact-affecting projection of the options (core.OptionsKey):
// observability settings never change artifact contents, so a traced
// and an untraced execution of the same experiment are interchangeable
// as far as the cache is concerned.
type cacheKey struct {
	id  string
	opt core.OptionsKey
}

// cacheEntry is a single-flight slot: the first requester runs the
// experiment and closes ready; everyone else waits on it.
type cacheEntry struct {
	ready chan struct{}
	art   *core.Artifact
	err   error
}

// Engine runs sweeps. The zero value is ready to use; engines are safe
// for concurrent use and the cache persists across Run calls.
type Engine struct {
	// Workers bounds concurrent experiment executions; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// FailFast cancels the remaining sweep after the first failure:
	// experiments not yet started are marked skipped with the
	// cancellation cause. Already-running experiments complete (they do
	// not observe the context internally).
	FailFast bool

	mu    sync.Mutex
	cache map[cacheKey]*cacheEntry
}

// New returns an engine with the given worker bound (≤ 0 for GOMAXPROCS).
func New(workers int) *Engine { return &Engine{Workers: workers} }

// workerCount resolves the effective pool size for n queued experiments.
func (e *Engine) workerCount(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the given experiment ids under opt and returns results in
// input order. Duplicate ids coalesce onto one execution through the
// cache. Cancellation of ctx (or, with FailFast, the first failure) stops
// experiments that have not started; their results carry the context
// error.
func (e *Engine) Run(ctx context.Context, ids []string, opt core.Options) []Result {
	return e.run(ctx, len(ids), func(ctx context.Context, i int) Result {
		return e.runOne(ctx, ids[i], opt)
	})
}

// Observe is the observed-run path: it runs each distinct id once, in
// first-seen order, traced, and returns one Result per distinct id.
// Each simulated job's report, with its timeline in Events, goes to
// job(i, rep) as the job finishes, where i indexes the returned results
// (so i < len(ids)). One id's jobs arrive in order, from the goroutine
// running that id; distinct ids may call job concurrently. Observed
// runs replace opt.Trace, always execute and never touch the cache.
// Workers and FailFast apply as in Run.
func (e *Engine) Observe(ctx context.Context, ids []string, opt core.Options, job func(i int, rep *simmpi.Report)) []Result {
	uniq := make([]string, 0, len(ids))
	seen := map[string]bool{}
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	return e.run(ctx, len(uniq), func(ctx context.Context, i int) Result {
		o := opt
		o.Trace = func(rep *simmpi.Report) { job(i, rep) }
		return e.runOne(ctx, uniq[i], o)
	})
}

// run executes one(ctx, i) for every i in [0, n) on the worker pool and
// returns the results in index order.
func (e *Engine) run(ctx context.Context, n int, one func(ctx context.Context, i int) Result) []Result {
	results := make([]Result, n)
	if n == 0 {
		return results
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.workerCount(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				results[i] = one(ctx, i)
				if results[i].Err != nil && e.FailFast {
					cancel(fmt.Errorf("sweep: %s failed: %w", results[i].ID, results[i].Err))
				}
			}
		}()
	}
	for i := range n {
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results
}

// runOne executes (or fetches from cache) a single experiment.
func (e *Engine) runOne(ctx context.Context, id string, opt core.Options) Result {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{ID: id, Err: err}
	}
	// Per-artifact telemetry: one span per requested id, a child of
	// whatever span the caller carried in ctx (the serve daemon's
	// request, or nothing — every method on a nil span is a no-op).
	// Telemetry does NOT bypass the artifact cache: spans describe this
	// request's path, and "served from cache" is itself the story — hits
	// are annotated cached=true and simply carry no job spans, because
	// nothing executed.
	span := telemetry.SpanFrom(ctx).Child("artifact:" + id)
	defer span.End()
	opt.Telemetry = span
	// A run with a trace sink bypasses the cache in both directions: the
	// sink must see the events of this execution (a cached artifact has
	// none), and the artifact of a bypass run must not displace the
	// single-flight slot other workers may be waiting on. Nothing else
	// outside the key changes an artifact; Counters without a sink has
	// nowhere to report, so it shares the cache.
	if opt.Trace != nil {
		art, err := runExperiment(id, opt)
		span.Fail(err)
		return Result{ID: id, Artifact: art, Err: err, Elapsed: time.Since(start)}
	}
	key := cacheKey{id, opt.ArtifactKey()}
	entry, owner := e.entryFor(key)
	if !owner {
		// Someone else is (or was) computing this key; wait for it.
		span.SetAttr("cached", true)
		select {
		case <-entry.ready:
			span.Fail(entry.err)
			return Result{ID: id, Artifact: entry.art, Err: entry.err,
				Elapsed: time.Since(start), Cached: true}
		case <-ctx.Done():
			span.Fail(ctx.Err())
			return Result{ID: id, Err: ctx.Err()}
		}
	}
	art, err := runExperiment(id, opt)
	span.Fail(err)
	entry.art, entry.err = art, err
	close(entry.ready)
	if err != nil {
		// Failures are not cached: waiters already on this flight get
		// the error, later callers run the experiment again.
		e.mu.Lock()
		delete(e.cache, key)
		e.mu.Unlock()
	}
	return Result{ID: id, Artifact: art, Err: err, Elapsed: time.Since(start)}
}

// entryFor returns the cache slot for key and whether the caller owns the
// execution (true exactly once per key).
func (e *Engine) entryFor(k cacheKey) (*cacheEntry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		e.cache = map[cacheKey]*cacheEntry{}
	}
	if entry, ok := e.cache[k]; ok {
		return entry, false
	}
	entry := &cacheEntry{ready: make(chan struct{})}
	e.cache[k] = entry
	return entry, true
}

// runExperiment resolves and executes one experiment, converting panics
// into errors so a buggy experiment cannot take the whole sweep down.
func runExperiment(id string, opt core.Options) (art *core.Artifact, err error) {
	exp, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			art, err = nil, fmt.Errorf("sweep: %s panicked: %v", id, p)
		}
	}()
	art, err = exp.Run(opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return art, nil
}

// Summary aggregates a sweep's outcomes for reporting.
type Summary struct {
	OK      int
	Failed  int
	Skipped int
	// Elapsed is the summed per-experiment execution time (the
	// sequential-equivalent cost; wall-clock is lower when Workers > 1).
	Elapsed time.Duration
}

// Summarize classifies every result of a sweep.
func Summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		switch {
		case r.Err == nil:
			s.OK++
		case r.Skipped():
			s.Skipped++
		default:
			s.Failed++
		}
		s.Elapsed += r.Elapsed
	}
	return s
}

// String renders the summary in the CLI's one-line form.
func (s Summary) String() string {
	out := fmt.Sprintf("%d ok, %d failed", s.OK, s.Failed)
	if s.Skipped > 0 {
		out += fmt.Sprintf(", %d skipped", s.Skipped)
	}
	return out
}

// FirstError returns the first non-skip failure in input order, or nil.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil && !r.Skipped() {
			return r.Err
		}
	}
	return nil
}
