package simmpi

// Batched world collectives: the only implementation of the five world
// collectives the applications issue — Barrier, Allreduce, Allgather,
// Alltoall and the neighbourhood (halo) exchange.
//
// When all p ranks have parked at the same collective, the functions
// here execute it as one event: each rank's exact per-rank operation
// sequence of a classic point-to-point algorithm — the same
// sendFloatsCore/recvFloatsCore calls, buffer copies, and reduction
// folds a rank would issue through Send/Recv — is replayed in a
// dependency-valid cross-rank order. All simulator state is per-rank
// (clocks, PMUs, stats, flow sequences, trace logs), and cross-rank
// coupling happens only through message stamps, so any order that runs
// every receive after its matching send yields bit-identical results;
// the trace merge in Run re-sorts events into (Start, Rank) order
// afterwards. The point-to-point algorithms themselves live on as a
// test-only reference oracle (collective_ref_test.go) that the
// differential suite in engine_test.go compares every batched
// collective against.
//
// Message slots: within one round of every classic algorithm the
// send→recv pairing is a bijection (each rank receives at most one
// message), so a single scratch slice indexed by receiver replaces
// per-route queues. Likewise each rank sends at most one message per
// round, so the copy a rank sends of a buffer that Allreduce folds in
// place comes from one reusable buffer per sender (sendCopy), read
// before that sender's next round. A halo exchange has no such
// bijection: its messages wait in one reusable buffer, grouped by sender
// (batchNeighbor).
//
// The valid cross-rank orders used below:
//   - round-based exchanges (barrier, allreduce doubling, allgather
//     ring, alltoall): all sends of the round, then all receives;
//   - the halo exchange: every rank's sends, then every rank's
//     receives. Each rank of the hand-rolled loop posts all its sends
//     before its first receive, so this keeps every rank's program
//     order.

import (
	"fmt"

	"a64fxbench/internal/metrics"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// collKind names a world collective for the rendezvous in event.go.
type collKind int

const (
	collBarrier collKind = iota
	collAllreduce
	collAllgather
	collAlltoall
	collNeighbor
)

func (k collKind) String() string {
	switch k {
	case collBarrier:
		return "Barrier"
	case collAllreduce:
		return "Allreduce"
	case collAllgather:
		return "Allgather"
	case collAlltoall:
		return "Alltoall"
	case collNeighbor:
		return "NeighborExchange"
	}
	return fmt.Sprintf("collKind(%d)", int(k))
}

// collArgs carries one rank's arguments into the batched executor.
type collArgs struct {
	buf   []float64   // Allreduce buffer; Allgather contribution
	op    Op          // Allreduce operator
	out   []float64   // Allgather output, pre-filled with own block
	bytes units.Bytes // Alltoall message size
	halos []Halo      // NeighborExchange halo list
}

// scratch (re)sizes the executor's per-rank scratch arrays.
func (e *eventEngine) scratch() {
	p := len(e.ranks)
	if e.slots == nil {
		e.slots = make([]message, p)
		e.starts = make([]vclock.Time, p)
		e.blocks = make([][]float64, p)
		e.ints = make([]int, p)
		e.sentOff = make([]int, p+1)
	}
}

// sendCopy copies buf into rank id's reusable send buffer (Rank.sendBuf)
// and returns the copy. It stays valid until id's next sendCopy, which
// Allreduce issues only after the copy's receiver has folded it.
func (e *eventEngine) sendCopy(id int, buf []float64) []float64 {
	r := e.ranks[id]
	r.sendBuf = append(r.sendBuf[:0], buf...)
	return r.sendBuf
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

// runBatched executes one world collective across all ranks; results
// land in the buffers each rank's args point at.
func runBatched(e *eventEngine, kind collKind, args []collArgs) {
	e.scratch()
	switch kind {
	case collBarrier:
		batchBarrier(e)
	case collAllreduce:
		batchAllreduce(e, args)
	case collAllgather:
		batchAllgather(e, args)
	case collAlltoall:
		batchAlltoall(e, args)
	case collNeighbor:
		batchNeighbor(e, args)
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
			e.slots[(id+k)%p] = r.sendFloatsCore((id+k)%p, tag, nil, 0)
		}
		for id, r := range rs {
			r.recvFloatsCore(e.slots[id], (id-k+p)%p, tag)
		}
	}
	e.endAll(metrics.CollBarrier)
}

// arNewID maps a rank to its recursive-doubling id for Allreduce's
// non-power-of-two folding: -1 for the even halves that drop out.
func arNewID(id, rem int) int {
	switch {
	case id < 2*rem && id%2 == 0:
		return -1
	case id < 2*rem:
		return id / 2
	default:
		return id - rem
	}
}

// batchAllreduce pre-folds to a power of two, runs recursive doubling,
// and post-unfolds. Results land in each rank's own buf.
func batchAllreduce(e *eventEngine, args []collArgs) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll()
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	// Phase 1: evens below 2*rem send to their odd partner and drop out.
	for id := 0; id < 2*rem; id += 2 {
		buf := args[id].buf
		e.slots[id+1] = rs[id].sendFloatsCore(id+1, tagReduce,
			e.sendCopy(id, buf), units.Bytes(8*len(buf)))
	}
	for id := 1; id < 2*rem; id += 2 {
		other := rs[id].recvFloatsCore(e.slots[id], id-1, tagReduce)
		buf, op := args[id].buf, args[id].op
		for i := range buf {
			buf[i] = op(buf[i], other[i])
		}
	}
	// Phase 2: recursive doubling among the pof2 survivors. Each round's
	// partner pairing is an involution, so sends-then-recvs per round is
	// a valid order.
	for mask := 1; mask < pof2; mask <<= 1 {
		tag := tagReduce + 1 + mask
		for id := 0; id < p; id++ {
			nid := arNewID(id, rem)
			if nid < 0 {
				continue
			}
			partnerNew := nid ^ mask
			partner := partnerNew + rem
			if partnerNew < rem {
				partner = partnerNew*2 + 1
			}
			buf := args[id].buf
			e.slots[partner] = rs[id].sendFloatsCore(partner, tag,
				e.sendCopy(id, buf), units.Bytes(8*len(buf)))
		}
		for id := 0; id < p; id++ {
			nid := arNewID(id, rem)
			if nid < 0 {
				continue
			}
			partnerNew := nid ^ mask
			partner := partnerNew + rem
			if partnerNew < rem {
				partner = partnerNew*2 + 1
			}
			other := rs[id].recvFloatsCore(e.slots[id], partner, tag)
			buf, op := args[id].buf, args[id].op
			for i := range buf {
				buf[i] = op(buf[i], other[i])
			}
		}
	}
	// Phase 3: survivors return the result to the dropped-out evens.
	for id := 1; id < 2*rem; id += 2 {
		buf := args[id].buf
		e.slots[id-1] = rs[id].sendFloatsCore(id-1, tagReduce+2,
			e.sendCopy(id, buf), units.Bytes(8*len(buf)))
	}
	for id := 0; id < 2*rem; id += 2 {
		got := rs[id].recvFloatsCore(e.slots[id], id+1, tagReduce+2)
		copy(args[id].buf, got)
	}
	e.endAll(metrics.CollAllreduce)
}

// batchAllgather runs the ring: p-1 steps, blocks travelling
// rank→rank+1, each rank copying the block it just received into its
// output at the rotating cursor.
func batchAllgather(e *eventEngine, args []collArgs) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll()
	for id := range rs {
		e.blocks[id] = append([]float64(nil), args[id].buf...)
		e.ints[id] = id // cursor
	}
	for step := 0; step < p-1; step++ {
		tag := tagGather + step
		for id, r := range rs {
			right := (id + 1) % p
			e.slots[right] = r.sendFloatsCore(right, tag, e.blocks[id],
				units.Bytes(8*len(e.blocks[id])))
		}
		for id, r := range rs {
			left := (id - 1 + p) % p
			e.blocks[id] = r.recvFloatsCore(e.slots[id], left, tag)
			e.ints[id] = (e.ints[id] - 1 + p) % p
			n := len(args[id].buf)
			copy(args[id].out[e.ints[id]*n:], e.blocks[id])
		}
	}
	for id := range rs {
		e.blocks[id] = nil
	}
	e.endAll(metrics.CollAllgather)
}

// batchAlltoall runs the XOR pairwise exchange for power-of-two sizes,
// the rotation schedule otherwise. Each rank's messages carry the size
// it passed.
func batchAlltoall(e *eventEngine, args []collArgs) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll()
	if p&(p-1) == 0 {
		for step := 1; step < p; step++ {
			tag := tagA2A + step
			for id, r := range rs {
				partner := id ^ step
				e.slots[partner] = r.sendFloatsCore(partner, tag, nil, args[id].bytes)
			}
			for id, r := range rs {
				r.recvFloatsCore(e.slots[id], id^step, tag)
			}
		}
	} else {
		for step := 1; step < p; step++ {
			tag := tagA2A + step
			for id, r := range rs {
				dst := (id + step) % p
				e.slots[dst] = r.sendFloatsCore(dst, tag, nil, args[id].bytes)
			}
			for id, r := range rs {
				r.recvFloatsCore(e.slots[id], (id-step+p)%p, tag)
			}
		}
	}
	e.endAll(metrics.CollAlltoall)
}

// haloMsg is one message of a halo exchange, kept under its sender; dst
// is -1 once a receive has matched it.
type haloMsg struct {
	dst, tag int
	m        message
}

// batchNeighbor runs a halo exchange: every rank's sends, in rank order
// and each rank's halo order, then every rank's receives. Rank id's
// messages are e.sent[e.sentOff[id]:e.sentOff[id+1]], in send order, and
// a receive takes the first unmatched one its peer addressed to it with
// its tag — the FIFO matching of a point-to-point route. There is no
// collBegin/collEnd bracket: halo time is not collective time.
func batchNeighbor(e *eventEngine, args []collArgs) {
	rs, p := e.ranks, len(e.ranks)
	n := 0
	for id := range rs {
		n += len(args[id].halos)
	}
	if cap(e.sent) < n {
		e.sent = make([]haloMsg, 0, n)
	}
	off, sent := e.sentOff, e.sent[:0]
	for id, r := range rs {
		off[id] = len(sent)
		for _, h := range args[id].halos {
			if h.Peer < 0 || h.Peer >= p {
				panic(fmt.Sprintf("simmpi: NeighborExchange: rank %d names peer %d outside [0, %d) (send tag %d, recv tag %d)",
					id, h.Peer, p, h.SendTag, h.RecvTag))
			}
			sent = append(sent, haloMsg{dst: h.Peer, tag: h.SendTag,
				m: r.sendFloatsCore(h.Peer, h.SendTag, nil, h.Bytes)})
		}
	}
	off[p] = len(sent)
	e.sent = sent
	for id, r := range rs {
		for _, h := range args[id].halos {
			from := sent[off[h.Peer]:off[h.Peer+1]]
			k := 0
			for k < len(from) && (from[k].dst != id || from[k].tag != h.RecvTag) {
				k++
			}
			if k == len(from) {
				panic(fmt.Sprintf("simmpi: NeighborExchange: rank %d expects tag %d from peer %d, which sent it no such message in this exchange",
					id, h.RecvTag, h.Peer))
			}
			r.recvFloatsCore(from[k].m, h.Peer, h.RecvTag)
			from[k].dst = -1
		}
	}
}
