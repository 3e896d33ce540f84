package simmpi

// Batched world collectives: the only implementation of the eight world
// collectives.
//
// When all p ranks have parked at the same collective, the functions
// here execute it as one event: each rank's exact per-rank operation
// sequence of a classic point-to-point algorithm — the same
// sendCore/recvCore calls, buffer copies, and reduction folds a rank
// would issue through Send/Recv — is replayed in a dependency-valid
// cross-rank order. All simulator state is per-rank (clocks, PMUs,
// stats, flow sequences, trace logs), and cross-rank coupling happens
// only through message stamps, so any order that runs every receive
// after its matching send yields bit-identical results; the trace merge
// in Run re-sorts events into (Start, Rank) order afterwards. The
// point-to-point algorithms themselves live on as a test-only reference
// oracle (collective_ref_test.go) that the differential suite in
// engine_test.go compares every batched collective against.
//
// Message slots: within one round of every algorithm the send→recv
// pairing is a bijection (each rank receives at most one message), so a
// single scratch slice indexed by receiver replaces per-route queues.
//
// The valid cross-rank orders used below:
//   - round-based exchanges (barrier, allreduce doubling, allgather
//     ring, alltoall, reduce-scatter halving): all sends of the round,
//     then all receives;
//   - trees (bcast, reduce): nodes in depth order — increasing virtual
//     rank for bcast, mask-ascending sender/receiver rounds for reduce;
//   - the ExScan chain: ranks in ascending order.

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
	collBcast
	collReduce
	collAllgather
	collAlltoall
	collReduceScatter
	collExScan
)

func (k collKind) String() string {
	switch k {
	case collBarrier:
		return "Barrier"
	case collAllreduce:
		return "Allreduce"
	case collBcast:
		return "Bcast"
	case collReduce:
		return "Reduce"
	case collAllgather:
		return "Allgather"
	case collAlltoall:
		return "Alltoall"
	case collReduceScatter:
		return "ReduceScatter"
	case collExScan:
		return "ExScan"
	}
	return fmt.Sprintf("collKind(%d)", int(k))
}

// collArgs carries one rank's arguments into the batched executor.
type collArgs struct {
	kind    collKind
	buf     []float64   // Allreduce/Bcast/Reduce/ReduceScatter/ExScan buffer; Allgather contribution
	op      Op          // reduction operator where applicable
	root    int         // Bcast/Reduce root (must agree across ranks)
	out     []float64   // Allgather output, pre-filled with own block
	mat     [][]float64 // Alltoall send blocks
	recvMat [][]float64 // Alltoall receive blocks, pre-filled with own block
}

// scratch (re)sizes the executor's per-rank scratch arrays.
func (e *eventEngine) scratch() {
	p := len(e.ranks)
	if e.slots == nil {
		e.slots = make([]message, p)
		e.starts = make([]vclock.Time, p)
		e.starts2 = make([]vclock.Time, p)
		e.blocks = make([][]float64, p)
		e.ints = make([]int, p)
		e.lims = make([]int, p)
	}
}

// beginAll/endAll replicate each rank's collBegin/collEnd bracket. The
// bracket is per-rank state only, so running all begins first and all
// ends last preserves every rank's program order exactly.
func (e *eventEngine) beginAll(starts []vclock.Time) {
	for i, r := range e.ranks {
		starts[i] = r.collBegin()
	}
}

func (e *eventEngine) endAll(c metrics.Collective, starts []vclock.Time) {
	for i, r := range e.ranks {
		r.collEnd(c, starts[i])
	}
}

// runBatched executes one world collective across all ranks, leaving
// each rank's return value (if any) in res.
func runBatched(e *eventEngine, kind collKind, args []collArgs, res []any) {
	e.scratch()
	switch kind {
	case collBarrier:
		batchBarrier(e)
	case collAllreduce:
		batchAllreduce(e, args)
	case collBcast:
		batchBcast(e, args, res)
	case collReduce:
		e.beginAll(e.starts)
		batchReduceTree(e, args, collRoot(e, args), tagReduce+3)
		e.endAll(metrics.CollReduce, e.starts)
	case collAllgather:
		batchAllgather(e, args, res)
	case collAlltoall:
		batchAlltoall(e, args, res)
	case collReduceScatter:
		batchReduceScatter(e, args, res)
	case collExScan:
		batchExScan(e, args, res)
	}
}

// collRoot checks that every rank named the same root (a mismatched
// root would deadlock a point-to-point tree; failing loudly is kinder).
func collRoot(e *eventEngine, args []collArgs) int {
	root := args[0].root
	for i := 1; i < len(args); i++ {
		if args[i].root != root {
			panic(fmt.Sprintf("simmpi: %s root mismatch: rank 0 used %d, rank %d used %d",
				args[i].kind, root, i, args[i].root))
		}
	}
	return root
}

// batchBarrier runs ⌈log₂p⌉ dissemination rounds, each rank sending to
// (id+k) and receiving from (id-k).
func batchBarrier(e *eventEngine) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll(e.starts)
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		tag := tagBarrier + round
		for id, r := range rs {
			e.slots[(id+k)%p] = r.sendFloatsCore((id+k)%p, tag, nil, 0)
		}
		for id, r := range rs {
			r.recvFloatsCore(e.slots[id], (id-k+p)%p, tag)
		}
	}
	e.endAll(metrics.CollBarrier, e.starts)
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
	e.beginAll(e.starts)
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	// Phase 1: evens below 2*rem send to their odd partner and drop out.
	for id := 0; id < 2*rem; id += 2 {
		buf := args[id].buf
		e.slots[id+1] = rs[id].sendFloatsCore(id+1, tagReduce,
			append([]float64(nil), buf...), units.Bytes(8*len(buf)))
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
				append([]float64(nil), buf...), units.Bytes(8*len(buf)))
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
			append([]float64(nil), buf...), units.Bytes(8*len(buf)))
	}
	for id := 0; id < 2*rem; id += 2 {
		got := rs[id].recvFloatsCore(e.slots[id], id+1, tagReduce+2)
		copy(args[id].buf, got)
	}
	e.endAll(metrics.CollAllreduce, e.starts)
}

// batchBcast runs a binomial tree rooted at root, processed in
// increasing virtual rank so every parent's send precedes its child's
// receive.
func batchBcast(e *eventEngine, args []collArgs, res []any) {
	rs, p := e.ranks, len(e.ranks)
	root := collRoot(e, args)
	e.beginAll(e.starts)
	for v := 0; v < p; v++ {
		id := (v + root) % p
		r := rs[id]
		buf := args[id].buf
		if v != 0 {
			mask := 1
			for mask <= v {
				mask <<= 1
			}
			mask >>= 1
			parent := ((v - mask) + root) % p
			buf = r.recvFloatsCore(e.slots[id], parent, tagBcast)
		}
		low := 1
		for low <= v {
			low <<= 1
		}
		for m := low; v+m < p; m <<= 1 {
			child := (v + m + root) % p
			e.slots[child] = r.sendFloatsCore(child, tagBcast,
				append([]float64(nil), buf...), units.Bytes(8*len(buf)))
		}
		res[id] = buf
	}
	e.endAll(metrics.CollBcast, e.starts)
}

// batchReduceTree is Reduce's binomial combine onto the root, without
// the collBegin/collEnd bracket (callers bracket it, because
// ReduceScatter's non-power-of-two path nests a complete Reduce inside
// its own bracket). bufs come from args[i].buf; mask-ascending rounds
// run senders before receivers.
func batchReduceTree(e *eventEngine, args []collArgs, root, tag int) {
	rs, p := e.ranks, len(e.ranks)
	for mask := 1; mask < p; mask <<= 1 {
		// Senders this round: active ranks whose vrank has `mask` set.
		for v := mask; v < p; v += 2 * mask {
			id := (v + root) % p
			dst := (v&^mask + root) % p
			buf := args[id].buf
			e.slots[dst] = rs[id].sendFloatsCore(dst, tag,
				append([]float64(nil), buf...), units.Bytes(8*len(buf)))
		}
		// Receivers: active ranks with the bit clear and a live partner.
		for v := 0; v+mask < p; v += 2 * mask {
			id := (v + root) % p
			src := (v + mask + root) % p
			other := rs[id].recvFloatsCore(e.slots[id], src, tag)
			buf, op := args[id].buf, args[id].op
			for i := range buf {
				buf[i] = op(buf[i], other[i])
			}
		}
	}
}

// batchAllgather runs the ring: p-1 steps, blocks travelling
// rank→rank+1, each rank copying the block it just received into its
// output at the rotating cursor.
func batchAllgather(e *eventEngine, args []collArgs, res []any) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll(e.starts)
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
		res[id] = args[id].out
	}
	e.endAll(metrics.CollAllgather, e.starts)
}

// batchAlltoall runs the XOR pairwise exchange for power-of-two sizes,
// the rotation schedule otherwise.
func batchAlltoall(e *eventEngine, args []collArgs, res []any) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll(e.starts)
	if p&(p-1) == 0 {
		for step := 1; step < p; step++ {
			tag := tagA2A + step
			for id, r := range rs {
				partner := id ^ step
				blk := args[id].mat[partner]
				e.slots[partner] = r.sendFloatsCore(partner, tag, blk, units.Bytes(8*len(blk)))
			}
			for id, r := range rs {
				partner := id ^ step
				args[id].recvMat[partner] = r.recvFloatsCore(e.slots[id], partner, tag)
			}
		}
	} else {
		for step := 1; step < p; step++ {
			tag := tagA2A + step
			for id, r := range rs {
				dst := (id + step) % p
				blk := args[id].mat[dst]
				e.slots[dst] = r.sendFloatsCore(dst, tag, blk, units.Bytes(8*len(blk)))
			}
			for id, r := range rs {
				src := (id - step + p) % p
				args[id].recvMat[src] = r.recvFloatsCore(e.slots[id], src, tag)
			}
		}
	}
	for id := range rs {
		res[id] = args[id].recvMat
	}
	e.endAll(metrics.CollAlltoall, e.starts)
}

// batchReduceScatter runs recursive halving for power-of-two sizes;
// otherwise a nested Reduce to rank 0 followed by a linear scatter, with
// the inner Reduce bracketed in its own collBegin/collEnd.
func batchReduceScatter(e *eventEngine, args []collArgs, res []any) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll(e.starts)
	if p&(p-1) != 0 {
		// Work copies stand in for each rank's `work` local; reuse the
		// args slots so batchReduceTree folds into them directly.
		inner := make([]collArgs, p)
		for id := range rs {
			e.blocks[id] = append([]float64(nil), args[id].buf...)
			inner[id] = collArgs{buf: e.blocks[id], op: args[id].op}
		}
		e.beginAll(e.starts2)
		batchReduceTree(e, inner, 0, tagReduce+3)
		e.endAll(metrics.CollReduce, e.starts2)
		blk := len(args[0].buf) / p
		work0 := e.blocks[0]
		for dst := 1; dst < p; dst++ {
			e.slots[dst] = rs[0].sendFloatsCore(dst, tagRS,
				work0[dst*blk:(dst+1)*blk], units.Bytes(8*blk))
		}
		res[0] = append([]float64(nil), work0[:blk]...)
		for dst := 1; dst < p; dst++ {
			res[dst] = rs[dst].recvFloatsCore(e.slots[dst], 0, tagRS)
		}
		for id := range rs {
			e.blocks[id] = nil
		}
		e.endAll(metrics.CollReduceScatter, e.starts)
		return
	}
	for id := range rs {
		e.blocks[id] = append([]float64(nil), args[id].buf...)
		e.ints[id] = 0                 // lo
		e.lims[id] = len(args[id].buf) // hi
	}
	for mask := p >> 1; mask >= 1; mask >>= 1 {
		tag := tagRS + 1 + mask
		for id, r := range rs {
			partner := id ^ mask
			mid := (e.ints[id] + e.lims[id]) / 2
			sLo, sHi := e.ints[id], mid
			if id&mask == 0 {
				sLo, sHi = mid, e.lims[id]
			}
			e.slots[partner] = r.sendFloatsCore(partner, tag,
				append([]float64(nil), e.blocks[id][sLo:sHi]...), units.Bytes(8*(sHi-sLo)))
		}
		for id, r := range rs {
			partner := id ^ mask
			mid := (e.ints[id] + e.lims[id]) / 2
			kLo, kHi := mid, e.lims[id]
			if id&mask == 0 {
				kLo, kHi = e.ints[id], mid
			}
			other := r.recvFloatsCore(e.slots[id], partner, tag)
			w, op := e.blocks[id], args[id].op
			for i := kLo; i < kHi; i++ {
				w[i] = op(w[i], other[i-kLo])
			}
			e.ints[id], e.lims[id] = kLo, kHi
		}
	}
	for id := range rs {
		res[id] = append([]float64(nil), e.blocks[id][e.ints[id]:e.lims[id]]...)
		e.blocks[id] = nil
	}
	e.endAll(metrics.CollReduceScatter, e.starts)
}

// batchExScan runs the linear pipeline: ranks in ascending order each
// receive the running prefix and forward it combined with their own
// contribution.
func batchExScan(e *eventEngine, args []collArgs, res []any) {
	rs, p := e.ranks, len(e.ranks)
	e.beginAll(e.starts)
	for id := 0; id < p; id++ {
		r := rs[id]
		buf := args[id].buf
		out := make([]float64, len(buf))
		if id > 0 {
			prev := r.recvFloatsCore(e.slots[id], id-1, tagScan)
			copy(out, prev)
		}
		if id < p-1 {
			next := make([]float64, len(buf))
			if id == 0 {
				copy(next, buf)
			} else {
				op := args[id].op
				for i := range next {
					next[i] = op(out[i], buf[i])
				}
			}
			e.slots[id+1] = r.sendFloatsCore(id+1, tagScan, next, units.Bytes(8*len(next)))
		}
		res[id] = out
	}
	e.endAll(metrics.CollExScan, e.starts)
}
