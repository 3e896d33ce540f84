package simmpi

// The reference oracle for the batched world collectives: the classic
// point-to-point algorithms, executed rank by rank through the ordinary
// Send/Recv path of the event loop. Each function performs exactly the
// per-rank message sequence, buffer copies and reduction folds that the
// matching batch* executor in collective_batch.go replays, inside the
// same collBegin/collEnd bracket (the halo exchange has none), so a job
// run with these in place of the Rank methods must produce a
// byte-identical report and trace (see engine_test.go).

import (
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// refBegin opens a collective bracket at r's played clock: the oracle
// runs on the body, so it reads the clock through Now, which waits
// until every op r queued has been played.
func refBegin(r *Rank) vclock.Time { return r.Now() }

// refEnd closes the bracket refBegin opened, once the collective's own
// queued messages have been played.
func refEnd(r *Rank, c metrics.Collective, start vclock.Time) {
	r.Now()
	r.collEnd(c, start)
}

// collSet is one implementation of the five world collectives, with the
// reduction in both its forms. Test bodies call collectives through it
// so the same body can run against the batched executor and against the
// reference oracle.
type collSet struct {
	Barrier          func(r *Rank)
	Allreduce        func(r *Rank, buf []float64, op Op)
	AllreduceBytes   func(r *Rank, bytes units.Bytes)
	Allgather        func(r *Rank, contrib []float64) []float64
	Alltoall         func(r *Rank, bytes units.Bytes)
	NeighborExchange func(r *Rank, halos []Halo)
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
		Barrier:          (*Rank).Barrier,
		Allreduce:        (*Rank).AllreduceFloats,
		AllreduceBytes:   (*Rank).Allreduce,
		Allgather:        (*Rank).Allgather,
		Alltoall:         (*Rank).Alltoall,
		NeighborExchange: (*Rank).NeighborExchange,
	}
	refColls = &collSet{
		Barrier:          refBarrier,
		Allreduce:        refAllreduce,
		AllreduceBytes:   refAllreduceBytes,
		Allgather:        refAllgather,
		Alltoall:         refAlltoall,
		NeighborExchange: refNeighborExchange,
	}
)

// refBarrier is a dissemination barrier: ⌈log₂p⌉ rounds, each rank
// sending to id+k and receiving from id−k.
func refBarrier(r *Rank) {
	p := r.size
	if p == 1 {
		return
	}
	defer refEnd(r, metrics.CollBarrier, refBegin(r))
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		r.Send(dst, tagBarrier+round, 0)
		r.Recv(src, tagBarrier+round)
	}
}

// refAllreduce is recursive doubling with the standard pre/post folding
// for non-power-of-two sizes.
func refAllreduce(r *Rank, buf []float64, op Op) {
	refReduce(r, buf, op, units.Bytes(8*len(buf)))
}

// refAllreduceBytes is refAllreduce's message sequence carrying bytes
// alone.
func refAllreduceBytes(r *Rank, bytes units.Bytes) {
	refReduce(r, nil, nil, bytes)
}

// refReduce runs recursive doubling. With a buffer, each message is a
// copy of it and each receive folds into it; without one, messages are
// bytes-only Sends of the given size.
func refReduce(r *Rank, buf []float64, op Op, bytes units.Bytes) {
	send := func(dst, tag int) {
		if buf == nil {
			r.Send(dst, tag, bytes)
		} else {
			r.SendFloats(dst, tag, append([]float64(nil), buf...))
		}
	}
	fold := func(src, tag int) {
		if buf == nil {
			r.Recv(src, tag)
			return
		}
		other := r.RecvFloats(src, tag)
		for i := range buf {
			buf[i] = op(buf[i], other[i])
		}
	}
	p := r.size
	if p == 1 {
		return
	}
	defer refEnd(r, metrics.CollAllreduce, refBegin(r))
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
		send(id+1, tagReduce)
	case id < 2*rem:
		fold(id-1, tagReduce)
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
			send(partner, tagReduce+1+mask)
			fold(partner, tagReduce+1+mask)
		}
	}
	// Phase 3: survivors return results to the dropped-out ranks.
	switch {
	case id < 2*rem && id%2 == 0:
		if buf == nil {
			r.Recv(id+1, tagReduce+2)
		} else {
			copy(buf, r.RecvFloats(id+1, tagReduce+2))
		}
	case id < 2*rem:
		send(id-1, tagReduce+2)
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
	defer refEnd(r, metrics.CollAllgather, refBegin(r))
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
// the rotation schedule otherwise, every message bytes-only.
func refAlltoall(r *Rank, bytes units.Bytes) {
	p := r.size
	if p == 1 {
		return
	}
	defer refEnd(r, metrics.CollAlltoall, refBegin(r))
	if p&(p-1) == 0 {
		for step := 1; step < p; step++ {
			partner := r.id ^ step
			r.Send(partner, tagA2A+step, bytes)
			r.Recv(partner, tagA2A+step)
		}
		return
	}
	for step := 1; step < p; step++ {
		r.Send((r.id+step)%p, tagA2A+step, bytes)
		r.Recv((r.id-step+p)%p, tagA2A+step)
	}
}

// refNeighborExchange is the hand-rolled halo loop the applications ran
// before NeighborExchange: every send in halo order, then every receive,
// through the point-to-point routes. There is no collective bracket.
func refNeighborExchange(r *Rank, halos []Halo) {
	for _, h := range halos {
		r.Send(h.Peer, h.SendTag, h.Bytes)
	}
	for _, h := range halos {
		r.Recv(h.Peer, h.RecvTag)
	}
}
