package simmpi

// The discrete-event engine: the one way simmpi executes a job.
//
// Every rank body runs as a coroutine (iter.Pull), and one dispatch loop,
// runEventLoop, resumes them: it pops a rank from a FIFO run queue and
// calls that rank's next, which returns when the rank parks — at an
// empty-route Recv or a world collective (halo exchanges included) — or
// when its body returns. A coroutine switch hands the thread over
// directly and never enters the Go scheduler, so a dispatch costs the
// same at any GOMAXPROCS, and exactly one rank or the loop runs at any
// instant.
//
// Correctness rests on the conservative virtual-time rule (see package
// vclock): every inter-rank coupling happens through a message stamped
// with its availability time, and a receive completes at
// max(receiver clock, stamp). Any scheduling that runs a receive after
// its matching send therefore produces bit-identical results — the run
// order is never a semantic choice — so the run queue is a plain FIFO:
// ranks run in the order they became runnable. Only the running rank
// pushes (a send that wakes a parked receiver, the last arrival at a
// collective), so that order is deterministic as well. The same rule
// lets world collectives run batched: the differential suite in
// engine_test.go holds every batched collective to the byte-identical
// output of its point-to-point reference algorithm.
//
// Three things make this engine fast at 10⁴–10⁵ ranks:
//
//   - World collectives are executed as one batched event (see
//     collective_batch.go): the last rank to park at a collective
//     replays every rank's exact per-rank message sequence in a
//     dependency-valid cross-rank order, eliminating the ~2·p·log p
//     dispatches per collective. Halo exchanges run the same way
//     (NeighborExchange), so the applications' face halos never touch
//     the route tables or park a rank on a receive.
//   - Messages are priced from per-job tables, not by the model: the
//     point-to-point model is a pure function of (hop count, bytes), so
//     each job keeps its node pairs' hop counts and its prices in two
//     fixed-size, direct-mapped tables (price.go), and the p equal-size
//     transfers of a collective round cost a handful of model
//     evaluations instead of p.
//   - Steady-state dispatch allocates nothing: the run queue is a fixed
//     ring of p rank ids, route queues reuse their backing arrays,
//     collective rounds copy through per-rank reusable buffers, halo
//     exchanges keep their messages in one reusable buffer, and rank
//     coroutines are created lazily on first dispatch.

import (
	"fmt"
	"iter"

	"a64fxbench/internal/vclock"
)

// rankState is where a rank currently is, from the engine's point of view.
type rankState uint8

const (
	stateReady rankState = iota // queued, running, or not yet started
	stateRecv                   // parked on an empty route
	stateColl                   // parked at a world collective
	stateDone                   // body returned (or unwound)
)

// runQueue is the FIFO of runnable rank ids: a ring of capacity p. That
// suffices because a rank is queued at most once — only a parked rank is
// pushed, and it cannot park again until the loop has popped and run it.
type runQueue struct {
	ids     []int
	head, n int
}

func (q *runQueue) push(i int) {
	t := q.head + q.n
	if t >= len(q.ids) {
		t -= len(q.ids)
	}
	q.ids[t] = i
	q.n++
}

func (q *runQueue) pop() int {
	i := q.ids[q.head]
	q.head++
	if q.head == len(q.ids) {
		q.head = 0
	}
	q.n--
	return i
}

// coroutine is one rank body suspended between dispatches: next resumes
// it until it parks or returns, stop unwinds it, and yield — held by the
// body's own side — suspends it. next is nil until the first dispatch.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// msgQueue is a FIFO of in-flight messages on one (src, dst, tag) route.
// Head-index draining keeps pops O(1); the backing array is reused once
// the queue empties. waiting marks the route's (single) receiver as
// parked on it — routes are single-reader, so a flag replaces a map.
type msgQueue struct {
	q       []message
	head    int
	waiting bool
}

func (q *msgQueue) empty() bool { return q.head == len(q.q) }

func (q *msgQueue) push(m message) { q.q = append(q.q, m) }

func (q *msgQueue) pop() message {
	m := q.q[q.head]
	q.q[q.head] = message{}
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
	return m
}

// queueArena hands out msgQueues in chunks so a job with r routes costs
// r/queueChunk allocations instead of r. Queues live for the whole job;
// nothing is ever returned.
type queueArena struct {
	chunk []msgQueue
}

const queueChunk = 256

func (a *queueArena) get() *msgQueue {
	if len(a.chunk) == 0 {
		a.chunk = make([]msgQueue, queueChunk)
	}
	q := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return q
}

// routeKey packs (src, tag) into the uint64 key of a per-receiver route
// table — the receiver is implicit in which table is consulted. The
// packed form keeps route lookups on the runtime's fast integer-map
// path, which the struct-keyed alternative misses; it requires tags to
// fit in 32 bits, which every tag in this codebase (user tags and the
// internal collective tags near 2^20–2^24) does by a wide margin.
func routeKey(src, tag int) uint64 {
	if int(uint32(tag)) != tag {
		panic(fmt.Sprintf("simmpi: tag %d overflows the event engine's 32-bit tag space", tag))
	}
	return uint64(uint32(src))<<32 | uint64(uint32(tag))
}

// engineKilled unwinds a parked rank's coroutine when a stalled job is
// aborted; the runner recognises it and returns without recording an
// error.
type engineKilled struct{}

// eventEngine is the per-job state of the discrete-event engine. Only
// the running coroutine or the dispatch loop touches it, and a coroutine
// switch hands the thread over directly — the two never run at once — so
// it needs no locks.
type eventEngine struct {
	j     *job
	ranks []*Rank
	body  func(*Rank) error

	// Dispatch: co[i] is rank i's coroutine; ready holds the ranks the
	// loop resumes next, in the order they became runnable.
	co    []coroutine
	state []rankState
	ready runQueue

	// Point-to-point routing: per-receiver route tables keyed on
	// (src, tag), so each table stays small and cache-resident at any
	// rank count, and every lookup is an integer-keyed fast path. A
	// parked receiver is marked in the queue itself (routes are
	// single-reader, and the reader's identity is the table index).
	routes []map[uint64]*msgQueue
	arena  queueArena

	// World-collective rendezvous: per-rank arguments, and the count of
	// ranks parked in the current collective.
	collArgs []collArgs
	collIn   int
	collKind collKind

	// Scratch for the batched collective executor (collective_batch.go);
	// allocated once at first use, reused for every collective. sent and
	// sentOff hold a halo exchange's messages, grouped by sender.
	slots   []message
	starts  []vclock.Time
	blocks  [][]float64
	ints    []int
	sent    []haloMsg
	sentOff []int

	errs []error
	done int
}

// runEventLoop executes body on every rank (see runRanks). It is the one
// dispatch loop: it pops the next runnable rank, starts its coroutine on
// the first dispatch, and resumes it until it parks or returns. If ranks
// remain unfinished when nothing is runnable, the job has stalled and is
// aborted.
func runEventLoop(j *job, ranks []*Rank, body func(*Rank) error) error {
	p := len(ranks)
	e := &eventEngine{
		j:        j,
		ranks:    ranks,
		body:     body,
		co:       make([]coroutine, p),
		state:    make([]rankState, p),
		ready:    runQueue{ids: make([]int, p)},
		routes:   make([]map[uint64]*msgQueue, p),
		collArgs: make([]collArgs, p),
		errs:     make([]error, p),
	}
	for i, r := range ranks {
		r.eng = e
		e.ready.push(i)
	}
	for e.ready.n > 0 {
		i := e.ready.pop()
		c := &e.co[i]
		if c.next == nil {
			c.next, c.stop = iter.Pull(e.runner(ranks[i]))
		}
		c.next()
	}
	if e.done < p {
		return e.abort()
	}
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// push queues parked rank i to run.
func (e *eventEngine) push(i int) {
	e.state[i] = stateReady
	e.ready.push(i)
}

// runner is rank r's coroutine body. It recovers every panic — from the
// body, from a batched collective this rank executed, or the
// engineKilled that unwinds it on abort — so next never re-panics on the
// loop; any panic but engineKilled becomes the rank's error.
func (e *eventEngine) runner(r *Rank) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		e.co[r.id].yield = yield
		defer func() {
			if p := recover(); p != nil {
				if _, killed := p.(engineKilled); !killed {
					e.errs[r.id] = fmt.Errorf("rank %d panicked: %v", r.id, p)
				}
			}
			e.state[r.id] = stateDone
			e.done++
		}()
		if err := e.body(r); err != nil {
			e.errs[r.id] = err
		}
	}
}

// park suspends r's coroutine, returning to the loop, until the loop
// resumes it. If the loop stops the coroutine instead (abort), yield
// returns false and park unwinds the rank. Must be called on r's own
// coroutine, after recording where r waits.
func (e *eventEngine) park(r *Rank) {
	if !e.co[r.id].yield(struct{}{}) {
		panic(engineKilled{})
	}
}

// route resolves (or creates) the queue for messages src→dst with tag.
func (e *eventEngine) route(src, dst, tag int) *msgQueue {
	t := e.routes[dst]
	if t == nil {
		t = make(map[uint64]*msgQueue, 8)
		e.routes[dst] = t
	}
	k := routeKey(src, tag)
	q := t[k]
	if q == nil {
		q = e.arena.get()
		t[k] = q
	}
	return q
}

// post delivers a sent message. Sends never block; if the route's
// receiver is parked on it, the receiver becomes runnable.
func (e *eventEngine) post(src, dst, tag int, m message) {
	q := e.route(src, dst, tag)
	q.push(m)
	if q.waiting {
		q.waiting = false
		e.push(dst)
	}
}

// await returns the next message sent src→r with tag, parking the rank
// if none is pending yet. A route has a single reader, so at most one
// rank ever waits on it.
func (e *eventEngine) await(r *Rank, src, tag int) message {
	q := e.route(src, r.id, tag)
	if q.empty() {
		e.state[r.id] = stateRecv
		q.waiting = true
		e.park(r)
	}
	return q.pop()
}

// collSlot opens r's arrival at a world collective of the given kind and
// returns r's argument slot, which the caller fills in place before
// calling collective.
func (e *eventEngine) collSlot(r *Rank, kind collKind) *collArgs {
	if e.collIn == 0 {
		e.collKind = kind
	} else if kind != e.collKind {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d entered %s while others are in %s",
			r.id, kind, e.collKind))
	}
	return &e.collArgs[r.id]
}

// collective parks r at the world collective its slot names until all
// ranks have arrived and the batched executor has run; results land in
// the buffers the slot points at. The last arriver runs the executor on
// its own coroutine before parking, so an executor panic (an unmatched
// halo, a peer outside the job) becomes that rank's error.
func (e *eventEngine) collective(r *Rank) {
	e.collIn++
	e.state[r.id] = stateColl
	if e.collIn == len(e.ranks) {
		e.runCollective()
	}
	e.park(r)
}

// runCollective fires once every rank has parked at the same world
// collective: the batched executor replays each rank's exact message
// sequence, then every rank becomes runnable, in rank order. collIn is
// reset first, so if the executor panics the job stalls with the
// arriver's error instead of running the collective again.
func (e *eventEngine) runCollective() {
	e.collIn = 0
	runBatched(e, e.collKind, e.collArgs)
	for i := range e.ranks {
		e.collArgs[i] = collArgs{}
		e.push(i)
	}
}

// abort reports why the job stalled — a rank's error if one occurred,
// otherwise a deadlock diagnosis — and unwinds every parked coroutine so
// nothing leaks: a job that can never finish returns an error instead of
// hanging. Stopping a coroutine makes its pending yield return false, so
// park panics with engineKilled and the runner returns.
func (e *eventEngine) abort() error {
	var err error
	for _, rerr := range e.errs {
		if rerr != nil {
			err = rerr
			break
		}
	}
	if err == nil {
		var inRecv int
		for _, s := range e.state {
			if s == stateRecv {
				inRecv++
			}
		}
		err = fmt.Errorf("simmpi: event engine deadlock: %d/%d ranks finished, %d parked in a collective, %d on recv",
			e.done, len(e.ranks), e.collIn, inRecv)
	}
	for i, c := range e.co {
		if c.stop != nil && e.state[i] != stateDone {
			c.stop()
		}
	}
	return err
}
