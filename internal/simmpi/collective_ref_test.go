package simmpi

// The reference oracle for the batched world collectives: the classic
// point-to-point algorithms, executed rank by rank through the ordinary
// Send/Recv path of the event loop. Each function performs exactly the
// per-rank message sequence that the matching batch* executor in
// collective_batch.go replays, inside the
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

// collSet is one implementation of the four world collectives. Test
// bodies call collectives through it so the same body can run against
// the batched executor and against the reference oracle.
type collSet struct {
	Barrier          func(r *Rank)
	Allreduce        func(r *Rank, bytes units.Bytes)
	Alltoall         func(r *Rank, bytes units.Bytes)
	NeighborExchange func(r *Rank, nb Neighborhood, tag int)
}

// batchedColls are the production collectives; refColls the oracle.
var (
	batchedColls = &collSet{
		Barrier:          (*Rank).Barrier,
		Allreduce:        (*Rank).Allreduce,
		Alltoall:         (*Rank).Alltoall,
		NeighborExchange: (*Rank).NeighborExchange,
	}
	refColls = &collSet{
		Barrier:          refBarrier,
		Allreduce:        refAllreduce,
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
// for non-power-of-two sizes, every message of the given size.
func refAllreduce(r *Rank, bytes units.Bytes) {
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
		r.Send(id+1, tagReduce, bytes)
	case id < 2*rem:
		r.Recv(id-1, tagReduce)
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
			r.Send(partner, tagReduce+1+mask, bytes)
			r.Recv(partner, tagReduce+1+mask)
		}
	}
	// Phase 3: survivors return results to the dropped-out ranks.
	switch {
	case id < 2*rem && id%2 == 0:
		r.Recv(id+1, tagReduce+2)
	case id < 2*rem:
		r.Send(id-1, tagReduce+2, bytes)
	}
}

// refAlltoall is the XOR pairwise exchange for power-of-two sizes and
// the rotation schedule otherwise.
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
// before NeighborExchange: every send of the rank's registered list in
// list order, then every receive, through the point-to-point routes.
// There is no collective bracket.
func refNeighborExchange(r *Rank, nb Neighborhood, tag int) {
	halos := r.eng.list(&r.eng.nbs[nb.id-1], r.id)
	for _, h := range halos {
		r.Send(int(h.peer), tag+int(h.send), h.bytes)
	}
	for _, h := range halos {
		r.Recv(int(h.peer), tag+int(h.recv))
	}
}
