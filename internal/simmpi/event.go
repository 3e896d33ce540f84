package simmpi

// The discrete-event engine: the one way simmpi executes a job.
//
// Every rank body runs as a coroutine (iter.Pull) that queues its
// operations instead of executing them (queue.go), and one dispatch
// loop, runEventLoop, plays those queues: it pops a rank from a FIFO run
// queue and plays the rank's ops in program order until the rank blocks
// — at a receive whose route is empty, or at a world collective (halo
// exchanges included) that not every rank has reached — or until its
// body has returned and its last op has played. Whenever the rank's
// queue drains first, the loop resumes its coroutine, which queues the
// next window of ops. A body runs ahead through compute phases, sends,
// receives and collectives without yielding; it waits only in Now or
// Stats, or for room in a full queue. A coroutine switch hands the
// thread over directly and never enters the Go scheduler, so a resume
// costs the same at any GOMAXPROCS, and exactly one body or the loop
// runs at any instant.
//
// Correctness rests on the conservative virtual-time rule (see package
// vclock): every inter-rank coupling happens through a message stamped
// with its availability time, and a receive completes at
// max(receiver clock, stamp). Any scheduling that plays each rank's ops
// in its program order and a receive after its matching send therefore
// produces bit-identical results — the play order is never a semantic
// choice — so the run queue is a plain FIFO: ranks play in the order
// they became runnable. Only the loop pushes (a send that wakes a
// blocked receiver, the play that completes a collective), so that
// order is deterministic as well. The same rule lets world collectives
// run batched: the differential suite in engine_test.go holds every
// batched collective to the byte-identical output of its point-to-point
// reference algorithm.
//
// Four things make this engine fast at 10⁴–10⁵ ranks:
//
//   - World collectives are executed as one batched event (see
//     collective_batch.go): the play that completes a collective's
//     arrivals replays every rank's exact per-rank message sequence in
//     a dependency-valid cross-rank order, eliminating the ~2·p·log p
//     dispatches per collective. Halo exchanges run the same way, over
//     persistent neighbourhoods whose matching is resolved once
//     (neighbor.go), so the applications' face halos never touch the
//     route tables, block a rank on a receive, or search for a match.
//   - A collective that repeats costs one pass over the ranks: in an
//     untraced, uncounted, contention-free job the shift memo (memo.go)
//     replays a recorded outcome whenever the ranks arrive with the same
//     relative clocks as at an earlier instance of the same pattern.
//   - A body is resumed once per window of ops, not once per
//     collective: blocking at a collective costs a run-queue push and
//     pop, not a coroutine switch.
//   - Messages are priced from per-job tables, not by the model: the
//     point-to-point model is a pure function of (hop count, bytes), so
//     each job keeps its node pairs' hop counts and its prices in two
//     fixed-size, direct-mapped tables (price.go), and the p equal-size
//     transfers of a collective round cost a handful of model
//     evaluations instead of p.
//
// Steady-state dispatch allocates nothing: the run queue is a fixed
// ring of p rank ids, the op queues, neighbourhood registry, halo
// message buffer and memo live in a pooled slab, route queues reuse
// their backing arrays, collective rounds pass messages through one
// reusable slot array, and rank coroutines are created lazily on first
// dispatch.

import (
	"fmt"
	"iter"

	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// rankState is where a rank currently is, from the engine's point of view.
type rankState uint8

const (
	stateReady rankState = iota // queued, playing, or not yet started
	stateRecv                   // blocked on an empty route
	stateColl                   // blocked at a world collective
	stateDone                   // body returned and every op played
)

// runQueue is the FIFO of runnable rank ids: a ring of capacity p. That
// suffices because a rank is queued at most once — only a blocked rank
// is pushed, and it cannot block again until the loop has popped and
// played it.
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

// coroutine is one rank body suspended until its queue drains: next
// resumes it until it waits or returns, stop unwinds it, and yield —
// held by the body's own side — suspends it. next is nil until the first
// dispatch; returned is set once the body has returned or unwound.
type coroutine struct {
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	returned bool
}

// msgQueue is a FIFO of in-flight messages on one (src, dst, tag) route.
// Head-index draining keeps pops O(1); the backing array is reused once
// the queue empties. waiting marks the route's (single) receiver as
// blocked on it — routes are single-reader, so a flag replaces a map.
type msgQueue struct {
	q       []message
	head    int
	waiting bool
}

func (q *msgQueue) empty() bool { return q.head == len(q.q) }

func (q *msgQueue) push(m message) { q.q = append(q.q, m) }

func (q *msgQueue) pop() message {
	m := q.q[q.head]
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

// engineKilled unwinds a waiting body's coroutine when a stalled job is
// aborted; the runner recognises it and returns without recording an
// error.
type engineKilled struct{}

// eventEngine is the per-job state of the discrete-event engine. Only
// the loop or the running body touches it, and a coroutine switch hands
// the thread over directly — the two never run at once — so it needs no
// locks.
type eventEngine struct {
	j     *job
	ranks []*Rank
	body  func(*Rank) error

	// Dispatch: co[i] is rank i's coroutine; ready holds the ranks the
	// loop plays next, in the order they became runnable. resumes counts
	// coroutine resumes.
	co      []coroutine
	state   []rankState
	ready   runQueue
	resumes int

	// Pooled storage: the ranks' queues, the neighbourhood registry —
	// the job's neighbourhoods, and how many chunks of halos it fills,
	// the last one up to used — and the shift memo, nil unless the job
	// is eligible for it (memo.go).
	slab         *queueSlab
	nbs          []neighborhood
	chunks, used int
	memo         *memo

	// Point-to-point routing: per-receiver route tables keyed on
	// (src, tag), so each table stays small and cache-resident at any
	// rank count, and every lookup is an integer-keyed fast path. A
	// blocked receiver is marked in the queue itself (routes are
	// single-reader, and the reader's identity is the table index).
	routes []map[uint64]*msgQueue
	arena  queueArena

	// World-collective rendezvous: the count of ranks blocked at the
	// current collective, and the first arrival's op. args[i] is a copy
	// of rank i's arrival op, so the executor reads every rank's
	// arguments from one array. colls counts the job's world
	// collectives and replayed those the memo played.
	collIn          int
	coll            rankOp
	args            []rankOp
	colls, replayed int

	// Scratch for the batched collective executor (collective_batch.go);
	// allocated once at first use, reused for every collective.
	slots  []message
	starts []vclock.Time

	errs []error
	done int
}

// runEventLoop executes body on every rank (see runRanks). It is the one
// dispatch loop: it pops the next runnable rank and plays it. If ranks
// remain unfinished when nothing is runnable, the job has stalled and is
// aborted. The queues are emptied before it returns, so Now and Stats
// never wait afterwards, and their storage goes back to the pool.
func runEventLoop(j *job, ranks []*Rank, body func(*Rank) error) error {
	p := len(ranks)
	w := queueWindow(p)
	e := &eventEngine{
		j:      j,
		ranks:  ranks,
		body:   body,
		co:     make([]coroutine, p),
		state:  make([]rankState, p),
		ready:  runQueue{ids: make([]int, p)},
		routes: make([]map[uint64]*msgQueue, p),
		errs:   make([]error, p),
		slab:   slabs.Get().(*queueSlab),
	}
	e.slab.ops = grown(e.slab.ops, p*w)
	e.slab.args = grown(e.slab.args, p)
	e.args = e.slab.args
	e.nbs = e.slab.nbs[:0]
	if j.cfg.Trace == nil && j.cfg.Counters == nil && j.congest == nil {
		e.memo = &e.slab.memo
		e.memo.reset(p)
	}
	for i, r := range ranks {
		r.eng = e
		r.q.ops = e.slab.ops[i*w : i*w : (i+1)*w]
		e.ready.push(i)
	}
	for e.ready.n > 0 {
		e.play(e.ready.pop())
	}
	err := e.finish()
	for _, r := range ranks {
		r.q = opQueue{}
	}
	e.slab.nbs = e.nbs
	slabs.Put(e.slab)
	return err
}

// finish returns the job's error: the first rank's, or a stall's.
func (e *eventEngine) finish() error {
	if e.done < len(e.ranks) {
		return e.abort()
	}
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// push queues blocked rank i to play.
func (e *eventEngine) push(i int) {
	e.state[i] = stateReady
	e.ready.push(i)
}

// play plays rank i: its queued ops in program order, resuming its body
// whenever they run out, until i blocks or its body has returned and
// every op has played. A panic while playing an op becomes i's error,
// with the text the same panic in the body would give; i then never
// plays again.
func (e *eventEngine) play(i int) {
	defer e.recoverPlay(i)
	r := e.ranks[i]
	q := &r.q
	c := &e.co[i]
	for {
		for q.head < len(q.ops) {
			if !e.exec(r, &q.ops[q.head]) {
				return
			}
			q.head++
		}
		if c.returned {
			e.state[i] = stateDone
			e.done++
			return
		}
		q.reset()
		if c.next == nil {
			c.next, c.stop = iter.Pull(e.runner(r))
		}
		e.resumes++
		c.next()
	}
}

// recoverPlay turns a panic in rank i's play into i's error.
func (e *eventEngine) recoverPlay(i int) {
	if p := recover(); p != nil {
		e.errs[i] = fmt.Errorf("rank %d panicked: %v", i, p)
	}
}

// exec plays one op of r. It reports false if r blocks on it; the op
// then stays at the head of r's queue.
func (e *eventEngine) exec(r *Rank, o *rankOp) bool {
	switch o.kind {
	case opCompute:
		r.compute(o.profile())
	case opElapse:
		r.elapse(units.Duration(o.n))
	case opSend:
		e.post(r.id, o.a, o.b, r.sendCore(o.a, o.b, units.Bytes(o.n)))
	case opRecv:
		return e.recv(r, o.a, o.b)
	case opRegion:
		r.region(r.q.names[o.a])
	case opEndRegion:
		r.endRegion()
	default:
		return e.arrive(r, o)
	}
	return true
}

// runner is rank r's coroutine body. It recovers every panic — from the
// body, or the engineKilled that unwinds it on abort — so next never
// re-panics on the loop; any panic but engineKilled becomes the rank's
// error.
func (e *eventEngine) runner(r *Rank) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		c := &e.co[r.id]
		c.yield = yield
		defer func() {
			if p := recover(); p != nil {
				if _, killed := p.(engineKilled); !killed {
					e.errs[r.id] = fmt.Errorf("rank %d panicked: %v", r.id, p)
				}
			}
			c.returned = true
		}()
		if err := e.body(r); err != nil {
			e.errs[r.id] = err
		}
	}
}

// wait suspends r's body, returning to the loop, until the loop has
// played r's queue empty and resumes it. If the loop stops the
// coroutine instead (abort), yield returns false and wait unwinds the
// body. Must be called on r's own coroutine.
func (e *eventEngine) wait(r *Rank) {
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
// receiver is blocked on it, the receiver becomes runnable.
func (e *eventEngine) post(src, dst, tag int, m message) {
	q := e.route(src, dst, tag)
	q.push(m)
	if q.waiting {
		q.waiting = false
		e.push(dst)
	}
}

// recv plays r's receive of the next message sent src→r with tag. If
// none is pending yet, r blocks on the route; a route has a single
// reader, so at most one rank ever waits on it.
func (e *eventEngine) recv(r *Rank, src, tag int) bool {
	if src < 0 || src >= r.size {
		panic(fmt.Sprintf("simmpi: recv from invalid rank %d (size %d)", src, r.size))
	}
	q := e.route(src, r.id, tag)
	if q.empty() {
		e.state[r.id] = stateRecv
		q.waiting = true
		return false
	}
	r.recvCore(q.pop(), src, tag)
	return true
}

// arrive plays r's arrival at the world collective o. If ranks are
// still missing, r blocks there. The arrival that completes the
// collective runs its batched executor over every rank's arguments, and
// then every other rank moves past the collective and becomes runnable,
// in rank order. A rank that enters another kind of collective, or a
// halo exchange of another neighbourhood or tag, than the ranks before
// it fails the job.
// collIn is reset first, so if the executor panics (an unmatched halo, a
// peer outside the job) the panic is the completing rank's error and the
// job stalls instead of running the collective again.
func (e *eventEngine) arrive(r *Rank, o *rankOp) bool {
	kind := o.kind
	if e.collIn == 0 {
		e.coll = *o
	} else if c := &e.coll; kind != c.kind {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d entered %s while others are in %s",
			r.id, kind, c.kind))
	} else if kind == opNeighbor && (o.a != c.a || o.b != c.b) {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d entered NeighborExchange of neighbourhood %d with tag %d while others are in neighbourhood %d with tag %d",
			r.id, o.a+1, o.b, c.a+1, c.b))
	}
	e.args[r.id] = *o
	e.collIn++
	if e.collIn < len(e.ranks) {
		e.state[r.id] = stateColl
		return false
	}
	e.collIn = 0
	runBatched(e, kind)
	for i, rr := range e.ranks {
		if rr != r {
			rr.q.head++
			e.push(i)
		}
	}
	return true
}

// abort reports why the job stalled — a rank's error if one occurred,
// otherwise a deadlock diagnosis — and unwinds every coroutine whose
// body has not returned, so nothing leaks: a job that can never finish
// returns an error instead of hanging. Stopping a coroutine makes its
// pending yield return false, so wait panics with engineKilled and the
// runner returns.
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
	for i := range e.co {
		if c := &e.co[i]; c.stop != nil && !c.returned {
			c.stop()
		}
	}
	return err
}
