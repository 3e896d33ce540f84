// Package sweep executes sets of experiments concurrently: a bounded
// worker pool runs any mix of paper artifacts and extension ablations in
// parallel, with per-experiment timing and cooperative cancellation
// through context.Context (first error under FailFast, or an external
// interrupt). An engine keeps no state between calls: a sweep runs each
// distinct id once, and caching what a request produced is the serve
// daemon's job (its response cache, keyed by core.Request.Digest).
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
	// Elapsed is the wall-clock execution time; a repeated id reports
	// it once, at its first position, and zero at the others.
	Elapsed time.Duration
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

// Engine runs sweeps. The zero value is ready to use; an engine holds
// only its settings, so it is safe for concurrent use.
type Engine struct {
	// Workers bounds concurrent experiment executions; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// FailFast cancels the remaining sweep after the first failure:
	// experiments not yet started are marked skipped with the
	// cancellation cause. Already-running experiments complete (they do
	// not observe the context internally).
	FailFast bool
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
// input order. A repeated id runs once and every position of it gets the
// same artifact. Cancellation of ctx (or, with FailFast, the first
// failure) stops experiments that have not started; their results carry
// the context error.
func (e *Engine) Run(ctx context.Context, ids []string, opt core.Options) []Result {
	uniq, at := distinct(ids)
	res := e.run(ctx, len(uniq), func(ctx context.Context, i int) Result {
		return runOne(ctx, uniq[i], opt)
	})
	out := make([]Result, len(ids))
	seen := make([]bool, len(uniq))
	for i, u := range at {
		out[i] = res[u]
		if seen[u] {
			out[i].Elapsed = 0
		}
		seen[u] = true
	}
	return out
}

// Observe is the observed-run path: it runs each distinct id once, in
// first-seen order, traced, and returns one Result per distinct id.
// Each simulated job's report, with its timeline in Events, goes to
// job(i, rep) as the job finishes, where i indexes the returned results
// (so i < len(ids)). One id's jobs arrive in order, from the goroutine
// running that id; distinct ids may call job concurrently. Observed
// runs replace opt.Trace. Workers and FailFast apply as in Run.
func (e *Engine) Observe(ctx context.Context, ids []string, opt core.Options, job func(i int, rep *simmpi.Report)) []Result {
	uniq, _ := distinct(ids)
	return e.run(ctx, len(uniq), func(ctx context.Context, i int) Result {
		o := opt
		o.Trace = func(rep *simmpi.Report) { job(i, rep) }
		return runOne(ctx, uniq[i], o)
	})
}

// distinct returns the distinct ids in first-seen order and, for each
// position of ids, the index of its id in that list.
func distinct(ids []string) (uniq []string, at []int) {
	index := map[string]int{}
	at = make([]int, len(ids))
	for i, id := range ids {
		u, ok := index[id]
		if !ok {
			u = len(uniq)
			index[id] = u
			uniq = append(uniq, id)
		}
		at[i] = u
	}
	return uniq, at
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

// runOne executes a single experiment under its own artifact span, a
// child of whatever span the caller carried in ctx (the serve daemon's
// request, or nothing — every method on a nil span is a no-op).
func runOne(ctx context.Context, id string, opt core.Options) Result {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{ID: id, Err: err}
	}
	span := telemetry.SpanFrom(ctx).Child("artifact:" + id)
	defer span.End()
	opt.Telemetry = span
	art, err := runExperiment(id, opt)
	span.Fail(err)
	return Result{ID: id, Artifact: art, Err: err, Elapsed: time.Since(start)}
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
