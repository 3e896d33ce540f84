package simmpi

// The rank operation queue. A rank body does not execute its operations:
// it queues them, in program order, and runs ahead until its queue is
// full, until it reads its own state (Now, Stats), or until it returns.
// No operation returns a value, so nothing else makes a body wait. The
// dispatch loop (event.go) plays each rank's queue with the same code
// the operations always ran — Compute's pricing, sendCore/recvCore and
// the route queues, the batched collective executors — and resumes the
// rank's coroutine only once its queue has drained. Every piece of rank
// state (clock, PMU, Stats, noise sequence, congestion flow log, trace
// log and region stack) therefore changes only when one of its ops is
// played, in the rank's program order, exactly as if the body had run
// each operation where it stands.
//
// Storage. A job's queues share one slab of p·w ops, w being the window
// (queueWindow): at most 2^14 ops of 40 bytes, 640 KiB, for any job of
// up to 4,096 ranks, and 4 ops per rank beyond. A halo exchange queues
// one op, naming its neighbourhood and tag; the lists themselves are
// registered once (neighbor.go). The slab also holds that registry, the
// halo exchanges' message buffer and the shift memo (memo.go). Slabs
// come from a sync.Pool, so a sweep's jobs reuse them instead of
// allocating their own. Region names sit in a per-rank list that only
// traced jobs fill.

import (
	"fmt"
	"sync"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// opKind names a queued operation. The world collectives come last; a
// collective mismatch names them by String.
type opKind uint8

const (
	opCompute opKind = iota
	opElapse
	opSend
	opRecv
	opRegion
	opEndRegion
	opBarrier
	opAllreduce
	opAlltoall
	opNeighbor
)

func (k opKind) String() string {
	switch k {
	case opBarrier:
		return "Barrier"
	case opAllreduce:
		return "Allreduce"
	case opAlltoall:
		return "Alltoall"
	case opNeighbor:
		return "NeighborExchange"
	}
	return fmt.Sprintf("opKind(%d)", int(k))
}

// rankOp is one queued operation, 40 bytes. Its fields carry its kind's
// arguments:
//
//	opCompute    the profile, inline: class in a, calls in b, bytes in n, flops in f
//	opElapse     the duration in n
//	opSend       destination in a, tag in b, wire bytes in n
//	opRecv       source in a, tag in b
//	opRegion     the index of its name in the queue's name list in a
//	opAllreduce  wire bytes in n
//	opAlltoall   wire bytes in n
//	opNeighbor   the neighbourhood's index in a, the tag in b
type rankOp struct {
	kind opKind
	a, b int
	n    int64
	f    units.Flops
}

// profile returns a compute op's work profile.
func (o *rankOp) profile() perfmodel.WorkProfile {
	return perfmodel.WorkProfile{
		Class: perfmodel.KernelClass(o.a), Flops: o.f,
		Bytes: units.Bytes(o.n), Calls: int64(o.b),
	}
}

// opQueue is a rank's pending operations, in program order: ops[head:]
// are still to play. The body appends and the loop plays; the loop
// empties the queue before it resumes the body, so the body always
// appends to a queue the loop is not reading.
type opQueue struct {
	ops   []rankOp // cap is the window
	head  int
	names []string // names of the queued regions
}

// pending reports whether any queued op has not been played.
func (q *opQueue) pending() bool { return q.head < len(q.ops) }

// reset empties a drained queue for the body to fill again.
func (q *opQueue) reset() {
	q.ops = q.ops[:0]
	q.head = 0
	if len(q.names) > 0 {
		clear(q.names)
		q.names = q.names[:0]
	}
}

// Queue sizing: a job's queues hold at most max(slabOps, minWindow·p)
// ops.
const (
	slabOps   = 1 << 14
	minWindow = 4
	maxWindow = 64
)

// queueWindow is how many ops a rank of a p-rank job queues before it
// waits for the loop to play them: clamp(2^14/p, 4, 64).
func queueWindow(p int) int {
	return min(max(slabOps/p, minWindow), maxWindow)
}

// queueSlab is the pooled storage of a job: its queues and collective
// arguments, its neighbourhoods' spans and halo chunks, the halo
// exchanges' message buffer, and its shift memo.
type queueSlab struct {
	ops    []rankOp
	args   []rankOp
	nbs    []neighborhood
	chunks [][]nbHalo
	sent   []message
	memo   memo
}

// slabs recycles queue storage across jobs.
var slabs = sync.Pool{New: func() any { return new(queueSlab) }}

// grown returns s with room for n elements, reusing s when it has it.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// push queues o, waiting first for the loop to play the queue empty if
// it is full.
func (r *Rank) push(o rankOp) {
	if len(r.q.ops) == cap(r.q.ops) {
		r.eng.wait(r)
	}
	r.q.ops = append(r.q.ops, o)
}

// pushRegion queues a Region op, keeping its name in the queue's name
// list.
func (r *Rank) pushRegion(name string) {
	if len(r.q.ops) == cap(r.q.ops) {
		r.eng.wait(r)
	}
	r.q.names = append(r.q.names, name)
	r.q.ops = append(r.q.ops, rankOp{kind: opRegion, a: len(r.q.names) - 1})
}

// sync waits until the loop has played every op r queued. It never
// waits once Run has returned: the queues are empty then.
func (r *Rank) sync() {
	if r.q.pending() {
		r.eng.wait(r)
	}
}
