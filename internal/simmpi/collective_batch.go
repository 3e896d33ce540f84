package simmpi

// Batched world collectives: the only implementation of the four world
// collectives the applications issue — Barrier, Allreduce, Alltoall and
// the neighbourhood (halo) exchange.
//
// A rank's play arrives at a collective when it reaches the queued op
// (event.go); the arrival copies the op into the engine's argument
// array. The play that completes the arrivals runs the functions here,
// which execute the collective as one event: each rank's exact per-rank
// message sequence of a classic point-to-point algorithm — the same
// sendCore/recvCore calls a rank would issue through Send/Recv — is
// replayed in a dependency-valid cross-rank order. All simulator state
// is per-rank (clocks, PMUs, stats, flow sequences, trace logs), and
// every rank has played each op it queued before the collective, so
// each rank's state changes in its program order. Cross-rank coupling
// happens only through message stamps, so any order that runs every
// receive after its matching send yields bit-identical results; the
// trace merge in Run merges events into (Start, Rank) order
// afterwards. The point-to-point algorithms themselves live on as a
// test-only reference oracle (collective_ref_test.go) that the
// differential suite in engine_test.go compares every batched
// collective against.
//
// In front of the executors sits the shift memo (memo.go): in a job
// eligible for it, a collective whose ranks arrive with the relative
// clocks of an earlier instance of the same pattern takes that
// instance's departures, shifted, and sends no message. Every pattern's
// first instance, and every miss, runs the executor here.
//
// Message slots: within one round of every classic algorithm the
// send→recv pairing is a bijection (each rank receives at most one
// message), so a single scratch slice indexed by receiver replaces
// per-route queues. A message is a wire size and a time, so a round
// copies and folds nothing. A halo exchange has no such bijection: its
// messages wait in one reusable buffer in send order, and each receive
// reads the message its neighbourhood's resolved matching names
// (batchNeighbor).
//
// The valid cross-rank orders used below:
//   - round-based exchanges (barrier, allreduce doubling, alltoall): all
//     sends of the round, then all receives;
//   - the halo exchange: every rank's sends, then every rank's
//     receives. Each rank of the hand-rolled loop posts all its sends
//     before its first receive, so this keeps every rank's program
//     order.

import (
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// scratch sizes the executor's per-rank scratch arrays at the job's
// first collective.
func (e *eventEngine) scratch() {
	p := len(e.ranks)
	if e.slots == nil {
		e.slots = make([]message, p)
		e.starts = make([]vclock.Time, p)
	}
}

// beginAll/endAll replicate each rank's collBegin/collEnd bracket. The
// bracket is per-rank state only, so running all begins first and all
// ends last preserves every rank's program order exactly.
func (e *eventEngine) beginAll() {
	for i, r := range e.ranks {
		e.starts[i] = r.collBegin()
	}
}

func (e *eventEngine) endAll(c metrics.Collective) {
	for i, r := range e.ranks {
		r.collEnd(c, e.starts[i])
	}
}

// runBatched executes one world collective across all ranks, from the
// shift memo if it holds the outcome. Each rank's arguments are its
// arrival op.
func runBatched(e *eventEngine, kind opKind) {
	e.colls++
	var pt *memoPattern
	if m := e.memo; m != nil {
		if pt = m.pattern(e, kind); pt != nil && m.replay(e, pt) {
			e.replayed++
			return
		}
	}
	e.scratch()
	switch kind {
	case opBarrier:
		batchBarrier(e)
	case opAllreduce:
		batchAllreduce(e)
	case opAlltoall:
		batchAlltoall(e)
	case opNeighbor:
		batchNeighbor(e)
	}
	if pt != nil {
		e.memo.record(e, pt)
	}
}

// batchBarrier runs ⌈log₂p⌉ dissemination rounds, each rank sending to
// (id+k) and receiving from (id-k).
func batchBarrier(e *eventEngine) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		tag := tagBarrier + round
		for id, r := range rs {
			e.slots[(id+k)%p] = r.sendCore((id+k)%p, tag, 0)
		}
		for id, r := range rs {
			r.recvCore(e.slots[id], (id-k+p)%p, tag)
		}
	}
	e.endAll(metrics.CollBarrier)
}

// arPartner is rank id's partner in the recursive-doubling round of
// the given mask, after Allreduce's non-power-of-two folding: -1 for the
// even halves that drop out.
func arPartner(id, rem, mask int) int {
	var nid int
	switch {
	case id < 2*rem && id%2 == 0:
		return -1
	case id < 2*rem:
		nid = id / 2
	default:
		nid = id - rem
	}
	partnerNew := nid ^ mask
	if partnerNew < rem {
		return partnerNew*2 + 1
	}
	return partnerNew + rem
}

// reduceSend is rank id's send of its reduction operand, of the size id
// passed, into dst's slot.
func (e *eventEngine) reduceSend(id, dst, tag int) {
	e.slots[dst] = e.ranks[id].sendCore(dst, tag, units.Bytes(e.args[id].n))
}

// reduceRecv is rank id's receive of src's operand.
func (e *eventEngine) reduceRecv(id, src, tag int) {
	e.ranks[id].recvCore(e.slots[id], src, tag)
}

// batchAllreduce pre-folds to a power of two, runs recursive doubling,
// and post-unfolds. Each message carries its sender's byte count.
func batchAllreduce(e *eventEngine) {
	p := len(e.ranks)
	e.beginAll()
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	// Phase 1: evens below 2*rem send to their odd partner and drop out.
	for id := 0; id < 2*rem; id += 2 {
		e.reduceSend(id, id+1, tagReduce)
	}
	for id := 1; id < 2*rem; id += 2 {
		e.reduceRecv(id, id-1, tagReduce)
	}
	// Phase 2: recursive doubling among the pof2 survivors. Each round's
	// partner pairing is an involution, so sends-then-recvs per round is
	// a valid order.
	for mask := 1; mask < pof2; mask <<= 1 {
		tag := tagReduce + 1 + mask
		for id := 0; id < p; id++ {
			if partner := arPartner(id, rem, mask); partner >= 0 {
				e.reduceSend(id, partner, tag)
			}
		}
		for id := 0; id < p; id++ {
			if partner := arPartner(id, rem, mask); partner >= 0 {
				e.reduceRecv(id, partner, tag)
			}
		}
	}
	// Phase 3: survivors return the result to the dropped-out evens.
	for id := 1; id < 2*rem; id += 2 {
		e.reduceSend(id, id-1, tagReduce+2)
	}
	for id := 0; id < 2*rem; id += 2 {
		e.reduceRecv(id, id+1, tagReduce+2)
	}
	e.endAll(metrics.CollAllreduce)
}

// batchAlltoall runs the XOR pairwise exchange for power-of-two sizes,
// the rotation schedule otherwise. Each rank's messages carry the size
// it passed.
func batchAlltoall(e *eventEngine) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll()
	if p&(p-1) == 0 {
		for step := 1; step < p; step++ {
			tag := tagA2A + step
			for id, r := range rs {
				partner := id ^ step
				e.slots[partner] = r.sendCore(partner, tag, units.Bytes(e.args[id].n))
			}
			for id, r := range rs {
				r.recvCore(e.slots[id], id^step, tag)
			}
		}
	} else {
		for step := 1; step < p; step++ {
			tag := tagA2A + step
			for id, r := range rs {
				dst := (id + step) % p
				e.slots[dst] = r.sendCore(dst, tag, units.Bytes(e.args[id].n))
			}
			for id, r := range rs {
				r.recvCore(e.slots[id], (id-step+p)%p, tag)
			}
		}
	}
	e.endAll(metrics.CollAlltoall)
}

// batchNeighbor runs a halo exchange of the neighbourhood and tag every
// rank passed: every rank's sends, in rank order and each rank's list
// order, then every rank's receives, each reading the message the
// neighbourhood's matching, resolved at its first exchange, assigns it —
// the FIFO matching of a point-to-point route. There is no
// collBegin/collEnd bracket: halo time is not collective time.
func batchNeighbor(e *eventEngine) {
	nb, tag := &e.nbs[e.coll.a], e.coll.b
	if !nb.resolved {
		e.resolve(nb, tag)
	}
	sent := grown(e.slab.sent, nb.msgs)
	e.slab.sent = sent
	k := 0
	for id, r := range e.ranks {
		for _, h := range e.list(nb, id) {
			sent[k] = r.sendCore(int(h.peer), tag+int(h.send), h.bytes)
			k++
		}
	}
	for id, r := range e.ranks {
		for _, h := range e.list(nb, id) {
			r.recvCore(sent[h.match], int(h.peer), tag+int(h.recv))
		}
	}
}
