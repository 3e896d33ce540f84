package simmpi

// The reference oracle for the batched world collectives: the classic
// point-to-point algorithms, executed rank by rank through the ordinary
// Send/Recv path of the event loop. Each function performs exactly the
// per-rank message sequence, buffer copies and reduction folds that the
// matching batch* executor in collective_batch.go replays, inside the
// same collBegin/collEnd bracket, so a job run with these in place of the
// Rank methods must produce a byte-identical report and trace (see
// engine_test.go).

import "a64fxbench/internal/metrics"

// collSet is one implementation of the eight world collectives. Test
// bodies call collectives through it so the same body can run against
// the batched executor and against the reference oracle.
type collSet struct {
	Barrier       func(r *Rank)
	Allreduce     func(r *Rank, buf []float64, op Op)
	Bcast         func(r *Rank, root int, buf []float64) []float64
	Reduce        func(r *Rank, root int, buf []float64, op Op)
	Allgather     func(r *Rank, contrib []float64) []float64
	Alltoall      func(r *Rank, send [][]float64) [][]float64
	ReduceScatter func(r *Rank, buf []float64, op Op) []float64
	ExScan        func(r *Rank, buf []float64, op Op) []float64
}

// allreduceScalar is Rank.AllreduceScalar over a collSet.
func (c *collSet) allreduceScalar(r *Rank, v float64, op Op) float64 {
	buf := []float64{v}
	c.Allreduce(r, buf, op)
	return buf[0]
}

// batchedColls are the production collectives; refColls the oracle.
var (
	batchedColls = &collSet{
		Barrier:       (*Rank).Barrier,
		Allreduce:     (*Rank).Allreduce,
		Bcast:         (*Rank).Bcast,
		Reduce:        (*Rank).Reduce,
		Allgather:     (*Rank).Allgather,
		Alltoall:      (*Rank).Alltoall,
		ReduceScatter: (*Rank).ReduceScatter,
		ExScan:        (*Rank).ExScan,
	}
	refColls = &collSet{
		Barrier:       refBarrier,
		Allreduce:     refAllreduce,
		Bcast:         refBcast,
		Reduce:        refReduce,
		Allgather:     refAllgather,
		Alltoall:      refAlltoall,
		ReduceScatter: refReduceScatter,
		ExScan:        refExScan,
	}
)

// refBarrier is a dissemination barrier: ⌈log₂p⌉ rounds, each rank
// sending to id+k and receiving from id−k.
func refBarrier(r *Rank) {
	p := r.size
	if p == 1 {
		return
	}
	defer r.collEnd(metrics.CollBarrier, r.collBegin())
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		r.Send(dst, tagBarrier+round, nil, 0)
		r.Recv(src, tagBarrier+round)
	}
}

// refAllreduce is recursive doubling with the standard pre/post folding
// for non-power-of-two sizes.
func refAllreduce(r *Rank, buf []float64, op Op) {
	p := r.size
	if p == 1 {
		return
	}
	defer r.collEnd(metrics.CollAllreduce, r.collBegin())
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	id := r.id
	// Phase 1: the first 2*rem ranks fold pairs so pof2 ranks remain.
	newID := -1
	switch {
	case id < 2*rem && id%2 == 0:
		r.SendFloats(id+1, tagReduce, append([]float64(nil), buf...))
	case id < 2*rem:
		other := r.RecvFloats(id-1, tagReduce)
		for i := range buf {
			buf[i] = op(buf[i], other[i])
		}
		newID = id / 2
	default:
		newID = id - rem
	}
	// Phase 2: recursive doubling among the pof2 survivors.
	if newID >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partnerNew := newID ^ mask
			var partner int
			if partnerNew < rem {
				partner = partnerNew*2 + 1
			} else {
				partner = partnerNew + rem
			}
			other := r.Sendrecv(partner, tagReduce+1+mask, append([]float64(nil), buf...))
			for i := range buf {
				buf[i] = op(buf[i], other[i])
			}
		}
	}
	// Phase 3: survivors return results to the dropped-out ranks.
	switch {
	case id < 2*rem && id%2 == 0:
		copy(buf, r.RecvFloats(id+1, tagReduce+2))
	case id < 2*rem:
		r.SendFloats(id-1, tagReduce+2, append([]float64(nil), buf...))
	}
}

// refBcast is a binomial tree rooted at root.
func refBcast(r *Rank, root int, buf []float64) []float64 {
	p := r.size
	if p == 1 {
		return buf
	}
	defer r.collEnd(metrics.CollBcast, r.collBegin())
	// Rotate so the root is virtual rank 0.
	vrank := (r.id - root + p) % p
	// Receive from parent (highest set bit), then forward down.
	if vrank != 0 {
		mask := 1
		for mask <= vrank {
			mask <<= 1
		}
		mask >>= 1
		parent := ((vrank - mask) + root) % p
		buf = r.RecvFloats(parent, tagBcast)
	}
	low := 1
	for low <= vrank {
		low <<= 1
	}
	for m := low; vrank+m < p; m <<= 1 {
		child := (vrank + m + root) % p
		r.SendFloats(child, tagBcast, append([]float64(nil), buf...))
	}
	return buf
}

// refReduce is a binomial combine onto root.
func refReduce(r *Rank, root int, buf []float64, op Op) {
	p := r.size
	if p == 1 {
		return
	}
	defer r.collEnd(metrics.CollReduce, r.collBegin())
	vrank := (r.id - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			parent := vrank &^ mask
			r.SendFloats((parent+root)%p, tagReduce+3, append([]float64(nil), buf...))
			return
		}
		if partner := vrank | mask; partner < p {
			other := r.RecvFloats((partner+root)%p, tagReduce+3)
			for i := range buf {
				buf[i] = op(buf[i], other[i])
			}
		}
	}
}

// refAllgather is the ring algorithm: p−1 steps, blocks travelling
// rank→rank+1.
func refAllgather(r *Rank, contrib []float64) []float64 {
	p := r.size
	n := len(contrib)
	out := make([]float64, n*p)
	copy(out[r.id*n:], contrib)
	if p == 1 {
		return out
	}
	defer r.collEnd(metrics.CollAllgather, r.collBegin())
	right := (r.id + 1) % p
	left := (r.id - 1 + p) % p
	cur := r.id
	block := append([]float64(nil), contrib...)
	for step := 0; step < p-1; step++ {
		r.SendFloats(right, tagGather+step, block)
		block = r.RecvFloats(left, tagGather+step)
		cur = (cur - 1 + p) % p
		copy(out[cur*n:], block)
	}
	return out
}

// refAlltoall is the XOR pairwise exchange for power-of-two sizes and
// the rotation schedule otherwise.
func refAlltoall(r *Rank, send [][]float64) [][]float64 {
	p := r.size
	recv := make([][]float64, p)
	recv[r.id] = send[r.id]
	if p == 1 {
		return recv
	}
	defer r.collEnd(metrics.CollAlltoall, r.collBegin())
	if p&(p-1) == 0 {
		for step := 1; step < p; step++ {
			partner := r.id ^ step
			recv[partner] = r.Sendrecv(partner, tagA2A+step, send[partner])
		}
		return recv
	}
	for step := 1; step < p; step++ {
		dst := (r.id + step) % p
		src := (r.id - step + p) % p
		r.SendFloats(dst, tagA2A+step, send[dst])
		recv[src] = r.RecvFloats(src, tagA2A+step)
	}
	return recv
}

// refReduceScatter is recursive halving for power-of-two sizes, and a
// nested refReduce to rank 0 plus a linear scatter otherwise.
func refReduceScatter(r *Rank, buf []float64, op Op) []float64 {
	p := r.size
	n := len(buf)
	blk := n / p
	if p == 1 {
		return append([]float64(nil), buf...)
	}
	defer r.collEnd(metrics.CollReduceScatter, r.collBegin())
	work := append([]float64(nil), buf...)
	if p&(p-1) != 0 {
		refReduce(r, 0, work, op)
		if r.id == 0 {
			for dst := 1; dst < p; dst++ {
				r.SendFloats(dst, tagRS, work[dst*blk:(dst+1)*blk])
			}
			return append([]float64(nil), work[:blk]...)
		}
		return r.RecvFloats(0, tagRS)
	}
	lo, hi := 0, n
	for mask := p >> 1; mask >= 1; mask >>= 1 {
		partner := r.id ^ mask
		mid := (lo + hi) / 2
		sendLo, sendHi, keepLo, keepHi := lo, mid, mid, hi
		if r.id&mask == 0 {
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		}
		other := r.Sendrecv(partner, tagRS+1+mask, append([]float64(nil), work[sendLo:sendHi]...))
		for i := keepLo; i < keepHi; i++ {
			work[i] = op(work[i], other[i-keepLo])
		}
		lo, hi = keepLo, keepHi
	}
	return append([]float64(nil), work[lo:hi]...)
}

// refExScan is a linear pipeline: each rank receives the running prefix
// from id−1 and forwards it, combined with its own contribution, to id+1.
func refExScan(r *Rank, buf []float64, op Op) []float64 {
	if r.size > 1 {
		defer r.collEnd(metrics.CollExScan, r.collBegin())
	}
	out := make([]float64, len(buf))
	if r.id > 0 {
		copy(out, r.RecvFloats(r.id-1, tagScan))
	}
	if r.id < r.size-1 {
		next := make([]float64, len(buf))
		if r.id == 0 {
			copy(next, buf)
		} else {
			for i := range next {
				next[i] = op(out[i], buf[i])
			}
		}
		r.SendFloats(r.id+1, tagScan, next)
	}
	return out
}
