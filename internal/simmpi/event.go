package simmpi

// The discrete-event engine: the one way simmpi executes a job.
//
// All ranks of a job share one execution token. Rank bodies run on
// goroutines — Go has no first-class continuations — but exactly one of
// them holds the token at any instant. A rank runs until it blocks (an
// empty-route Recv, a world collective — halo exchanges included — or a
// Split) or finishes, and then passes the token on itself (handoff): it
// pops the next runnable rank from a binary-heap ready queue keyed on
// (virtual time, rank, sequence) and resumes it with one channel send.
// No loop goroutine sits between two ranks, so a dispatch costs one
// goroutine switch. runEventLoop only starts the first rank and waits
// for the ranks to report that nothing is runnable.
//
// Correctness rests on the conservative virtual-time rule (see package
// vclock): every inter-rank coupling happens through a message stamped
// with its availability time, and a receive completes at
// max(receiver clock, stamp). Any scheduling that runs a receive after
// its matching send therefore produces bit-identical results — the
// ready queue's ordering is a real-time optimisation, never a semantic
// choice. The same rule lets world collectives run batched: the
// differential suite in engine_test.go holds every batched collective to
// the byte-identical output of its point-to-point reference algorithm.
//
// Three things make this engine fast at 10⁴–10⁵ ranks:
//
//   - World collectives are executed as one batched event (see
//     collective_batch.go): the last rank to park at a collective
//     replays every rank's exact per-rank message sequence in a
//     dependency-valid cross-rank order, eliminating the ~2·p·log p
//     token handoffs per collective. Halo exchanges run the same way
//     (NeighborExchange), so the applications' face halos never touch
//     the route tables or park a rank on a receive.
//   - Identical messages collapse onto shared symmetric state: the
//     point-to-point model is a pure function of (hop count, bytes), so
//     the engine memoises prices and the p equal-size transfers of a
//     collective round cost a handful of model evaluations instead of p.
//   - Steady-state dispatch allocates nothing: the ready queue is a
//     slice-backed binary heap, route queues reuse their backing arrays,
//     collective rounds copy through per-rank reusable buffers, halo
//     exchanges keep their messages in one reusable buffer, and rank
//     goroutines are spawned lazily on first dispatch.

import (
	"fmt"

	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// rankState is where a rank currently is, from the engine's point of view.
type rankState uint8

const (
	stateReady rankState = iota // in the ready heap (or running)
	stateRecv                   // parked on an empty route
	stateColl                   // parked at a world collective
	stateSplit                  // parked at a Split rendezvous
	stateDone                   // body returned (or unwound)
)

// evItem is one ready-queue entry: rank `rank` becomes runnable at
// virtual time `at`. seq breaks (at, rank) ties in insertion order —
// with unique ranks per entry it is belt-and-braces, but it pins the
// ordering contract down to a total order.
type evItem struct {
	at   vclock.Time
	rank int
	seq  uint64
}

// evHeap is a slice-backed binary min-heap of evItems ordered by
// (at, rank, seq). It never allocates beyond its high-water mark.
type evHeap struct {
	a []evItem
}

func (h *evHeap) len() int { return len(h.a) }

func evLess(x, y evItem) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.rank != y.rank {
		return x.rank < y.rank
	}
	return x.seq < y.seq
}

func (h *evHeap) push(it evItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *evHeap) pop() evItem {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && evLess(h.a[l], h.a[small]) {
			small = l
		}
		if r < last && evLess(h.a[r], h.a[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
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
// fit in 32 bits, which every tag in this codebase (user tags, the
// <= 2^27 internal collective tags, Comm tag bases) does by a wide
// margin.
func routeKey(src, tag int) uint64 {
	if int(uint32(tag)) != tag {
		panic(fmt.Sprintf("simmpi: tag %d overflows the event engine's 32-bit tag space", tag))
	}
	return uint64(uint32(src))<<32 | uint64(uint32(tag))
}

// engineKilled unwinds a parked rank goroutine when a stalled job is
// aborted; the runner recognises it and exits without recording an error.
type engineKilled struct{}

// eventEngine is the per-job state of the discrete-event engine. It is
// mutated only by the goroutine that holds the execution token — a rank
// goroutine, or runEventLoop before the first dispatch and once the
// ranks report that nothing is runnable — so it needs no locks: every
// token transfer is a channel operation, which orders one holder's
// writes before the next holder's reads.
type eventEngine struct {
	j     *job
	ranks []*Rank
	body  func(*Rank) error

	// Token handoff: a rank passes the token to parked rank i by sending
	// on resume[i] (buffered, so the sender never waits for the receiver
	// to reach its receive), or by starting i's goroutine if it has not
	// run yet. A rank that finds nothing runnable sends on idle instead,
	// returning the token to runEventLoop.
	resume  []chan struct{}
	idle    chan struct{}
	started []bool
	state   []rankState

	ready evHeap
	seq   uint64

	// Point-to-point routing: per-receiver route tables keyed on
	// (src, tag), so each table stays small and cache-resident at any
	// rank count, and every lookup is an integer-keyed fast path. A
	// parked receiver is marked in the queue itself (routes are
	// single-reader, and the reader's identity is the table index).
	routes []map[uint64]*msgQueue
	arena  queueArena

	// World-collective rendezvous: per-rank arguments and results, and
	// the count of ranks parked in the current collective.
	collArgs []collArgs
	collRes  []any
	collIn   int
	collKind collKind

	// Split rendezvous: ranks parked waiting for the last arriver.
	splitParked []int

	// Scratch for the batched collective executor (collective_batch.go);
	// allocated once at first use, reused for every collective. sendBufs
	// backs sendCopy; sent and sentOff hold a halo exchange's messages,
	// grouped by sender.
	slots    []message
	starts   []vclock.Time
	starts2  []vclock.Time
	blocks   [][]float64
	sendBufs [][]float64
	ints     []int
	lims     []int
	sent     []haloMsg
	sentOff  []int

	prices map[uint64]units.Duration

	errs    []error
	done    int
	aborted bool
}

// runEventLoop executes body on every rank (see runRanks). It starts
// the first rank and waits for the one idle signal: from there on the
// ranks hand the token to each other. If ranks remain unfinished when
// nothing is runnable, the job has stalled and is aborted.
func runEventLoop(j *job, ranks []*Rank, body func(*Rank) error) error {
	p := len(ranks)
	e := &eventEngine{
		j:        j,
		ranks:    ranks,
		body:     body,
		resume:   make([]chan struct{}, p),
		idle:     make(chan struct{}),
		started:  make([]bool, p),
		state:    make([]rankState, p),
		routes:   make([]map[uint64]*msgQueue, p),
		collArgs: make([]collArgs, p),
		collRes:  make([]any, p),
		prices:   make(map[uint64]units.Duration),
		errs:     make([]error, p),
	}
	e.ready.a = make([]evItem, 0, p)
	for i := range ranks {
		ranks[i].eng = e
		e.resume[i] = make(chan struct{}, 1)
		e.push(i, 0)
	}
	e.start(e.ready.pop().rank)
	<-e.idle
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

// push schedules rank i as runnable at virtual time `at`.
func (e *eventEngine) push(i int, at vclock.Time) {
	e.state[i] = stateReady
	e.ready.push(evItem{at: at, rank: i, seq: e.seq})
	e.seq++
}

// start launches rank i's goroutine, handing it the token.
func (e *eventEngine) start(i int) {
	e.started[i] = true
	go e.runner(e.ranks[i])
}

// handoff passes the token on from rank self, which is parking or has
// finished. If every rank has arrived at a world collective, self (the
// last arriver) runs it first. It then resumes the next ready rank, or
// reports true without switching if that rank is self; with nothing
// runnable it returns the token to runEventLoop. Once handoff returns
// false the caller no longer holds the token and must not touch engine
// state.
func (e *eventEngine) handoff(self int) bool {
	if e.collIn == len(e.ranks) {
		e.runCollective()
	}
	if e.ready.len() == 0 {
		e.idle <- struct{}{}
		return false
	}
	next := e.ready.pop().rank
	switch {
	case next == self:
		return true
	case !e.started[next]:
		e.start(next)
	default:
		e.resume[next] <- struct{}{}
	}
	return false
}

// runner is a rank goroutine: it holds the token on entry and whenever
// park returns, and passes it on exactly once on exit. A panic — from
// the body or from a batched collective this rank executed — becomes
// the rank's error.
func (e *eventEngine) runner(r *Rank) {
	defer func() {
		if p := recover(); p != nil {
			if _, killed := p.(engineKilled); !killed {
				e.errs[r.id] = fmt.Errorf("rank %d panicked: %v", r.id, p)
			}
		}
		e.state[r.id] = stateDone
		e.done++
		e.handoff(r.id)
	}()
	if err := e.body(r); err != nil {
		e.errs[r.id] = err
	}
}

// park passes the token on and blocks until some rank resumes this one.
// Must be called from r's own goroutine while it holds the token.
func (e *eventEngine) park(r *Rank) {
	if e.handoff(r.id) {
		return
	}
	<-e.resume[r.id]
	if e.aborted {
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
// receiver is parked on it, the receiver becomes runnable at the later
// of its own clock and the message's availability.
func (e *eventEngine) post(src, dst, tag int, m message) {
	q := e.route(src, dst, tag)
	q.push(m)
	if q.waiting {
		q.waiting = false
		e.push(dst, vclock.Max(e.ranks[dst].clock.Now(), m.avail))
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

// price memoises the contention-free point-to-point cost, which is a
// pure function of (hop count, bytes) for the job's fabric. The memo
// key packs hops+1 into the low byte (sizes here are byte counts well
// under 2^56, hop counts well under 255).
func (e *eventEngine) price(srcNode, dstNode int, bytes units.Bytes) units.Duration {
	f := e.j.cfg.Fabric
	hops := -1
	if srcNode != dstNode {
		hops = f.Topo.Hops(srcNode, dstNode)
	}
	if hops >= 255 {
		return f.PointToPoint(srcNode, dstNode, bytes) // beyond the memo's hop range
	}
	k := uint64(bytes)<<8 | uint64(uint8(hops+1))
	if d, ok := e.prices[k]; ok {
		return d
	}
	d := f.PointToPoint(srcNode, dstNode, bytes)
	e.prices[k] = d
	return d
}

// collective parks r at a world collective and returns its per-rank
// result once all ranks have arrived and the batched executor has run.
func (e *eventEngine) collective(r *Rank, a collArgs) any {
	if e.collIn == 0 {
		e.collKind = a.kind
	} else if a.kind != e.collKind {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d entered %s while others are in %s",
			r.id, a.kind, e.collKind))
	}
	e.collArgs[r.id] = a
	e.collIn++
	e.state[r.id] = stateColl
	e.park(r)
	res := e.collRes[r.id]
	e.collRes[r.id] = nil
	return res
}

// runCollective fires once every rank has parked at the same world
// collective, on the goroutine of the last arriver: the batched executor
// replays each rank's exact message sequence, then all ranks become
// runnable at their post-collective clocks. collIn is reset first, so if
// the executor panics (say, on a root mismatch) the arriver's runner
// turns the panic into its error and its exit handoff finds a stalled
// job instead of running the collective again.
func (e *eventEngine) runCollective() {
	e.collIn = 0
	runBatched(e, e.collKind, e.collArgs, e.collRes)
	for i, r := range e.ranks {
		e.collArgs[i] = collArgs{}
		e.push(i, r.clock.Now())
	}
}

// splitWait implements the Split rendezvous (comm.go): non-last
// arrivers park; the last arriver wakes everyone and continues without
// yielding. Splits serialise globally (a rank cannot reach its next
// Split before every rank passed the current one), so one parked list
// suffices.
func (e *eventEngine) splitWait(r *Rank, last bool) {
	if !last {
		e.state[r.id] = stateSplit
		e.splitParked = append(e.splitParked, r.id)
		e.park(r)
		return
	}
	for _, id := range e.splitParked {
		e.push(id, e.ranks[id].clock.Now())
	}
	e.splitParked = e.splitParked[:0]
}

// abort reports why the job stalled — a rank's error if one occurred,
// otherwise a deadlock diagnosis — and unwinds every parked goroutine
// so nothing leaks: a job that can never finish returns an error
// instead of hanging. runEventLoop holds the token here; each unwound
// rank's exit handoff finds nothing runnable and returns it.
func (e *eventEngine) abort() error {
	var err error
	for _, rerr := range e.errs {
		if rerr != nil {
			err = rerr
			break
		}
	}
	if err == nil {
		var inRecv, inSplit int
		for _, s := range e.state {
			switch s {
			case stateRecv:
				inRecv++
			case stateSplit:
				inSplit++
			}
		}
		err = fmt.Errorf("simmpi: event engine deadlock: %d/%d ranks finished, %d parked in a collective, %d on recv, %d in split",
			e.done, len(e.ranks), e.collIn, inRecv, inSplit)
	}
	e.aborted = true
	for i := range e.ranks {
		if e.started[i] && e.state[i] != stateDone {
			e.resume[i] <- struct{}{}
			<-e.idle
		}
	}
	return err
}
