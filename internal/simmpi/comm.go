package simmpi

import (
	"fmt"
	"sort"

	"a64fxbench/internal/units"
)

// Comm is a sub-communicator: a subset of the job's ranks with its own
// contiguous numbering, as produced by Split (the analogue of
// MPI_Comm_split). Collectives on a Comm involve only its members and
// use a tag space disjoint from the world's.
type Comm struct {
	rank    *Rank
	members []int // world ranks, sorted; index = comm rank
	myRank  int
	// tagBase separates this communicator's traffic: derived from the
	// split color so all members agree.
	tagBase int
}

// splitState coordinates one Split call across the job's ranks.
type splitState struct {
	entries map[int][]splitEntry // color → entries
	arrived int
}

type splitEntry struct {
	worldRank int
	key       int
}

// Split partitions the world's ranks by color, ordering each new
// communicator by key (ties broken by world rank) — MPI_Comm_split.
// Every rank of the job must call Split the same number of times.
func (r *Rank) Split(color, key int) *Comm {
	j := r.job
	seq := j.splitSeq[r.id]
	j.splitSeq[r.id]++
	st, ok := j.splits[seq]
	if !ok {
		st = &splitState{entries: map[int][]splitEntry{}}
		j.splits[seq] = st
	}
	st.entries[color] = append(st.entries[color], splitEntry{r.id, key})
	st.arrived++
	// Wait until every rank has registered its (color, key).
	r.eng.splitWait(r, st.arrived == r.size)

	// The rendezvous above costs no virtual time; MPI_Comm_split is a
	// collective, so charge a barrier's worth of virtual time too.
	r.Barrier()

	// Copy before sorting: every member sorts its own view.
	entries := append([]splitEntry(nil), st.entries[color]...)
	sort.Slice(entries, func(i, k int) bool {
		if entries[i].key != entries[k].key {
			return entries[i].key < entries[k].key
		}
		return entries[i].worldRank < entries[k].worldRank
	})
	c := &Comm{
		rank:    r,
		tagBase: 1<<27 + (seq<<8+color&0xff)<<12,
	}
	for i, e := range entries {
		c.members = append(c.members, e.worldRank)
		if e.worldRank == r.id {
			c.myRank = i
		}
	}
	return c
}

// Rank returns this member's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the communicator's member count.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank translates a communicator rank to the world rank.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.members) {
		panic(fmt.Sprintf("simmpi: comm rank %d outside [0,%d)", commRank, len(c.members)))
	}
	return c.members[commRank]
}

// Send transmits to a communicator rank.
func (c *Comm) Send(dst, tag int, payload any, bytes units.Bytes) {
	c.rank.Send(c.WorldRank(dst), c.tagBase+tag, payload, bytes)
}

// Recv receives from a communicator rank.
func (c *Comm) Recv(src, tag int) any {
	return c.rank.Recv(c.WorldRank(src), c.tagBase+tag)
}

// SendFloats sends a float64 slice within the communicator without
// boxing it (see Rank.SendFloats).
func (c *Comm) SendFloats(dst, tag int, data []float64) {
	c.rank.SendFloats(c.WorldRank(dst), c.tagBase+tag, data)
}

// RecvFloats receives a float64 slice within the communicator.
func (c *Comm) RecvFloats(src, tag int) []float64 {
	return c.rank.RecvFloats(c.WorldRank(src), c.tagBase+tag)
}

// AllreduceScalar reduces one value across the communicator's members
// with a recursive-doubling pattern over communicator ranks.
func (c *Comm) AllreduceScalar(v float64, op Op) float64 {
	p := c.Size()
	if p == 1 {
		return v
	}
	// Fold to the largest power of two, double, unfold — the world
	// Allreduce algorithm restated over communicator ranks.
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	id := c.myRank
	acc := v
	newID := -1
	switch {
	case id < 2*rem && id%2 == 0:
		c.SendFloats(id+1, 0, []float64{acc})
	case id < 2*rem:
		acc = op(acc, c.RecvFloats(id-1, 0)[0])
		newID = id / 2
	default:
		newID = id - rem
	}
	if newID >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partnerNew := newID ^ mask
			var partner int
			if partnerNew < rem {
				partner = partnerNew*2 + 1
			} else {
				partner = partnerNew + rem
			}
			c.SendFloats(partner, 1+mask, []float64{acc})
			acc = op(acc, c.RecvFloats(partner, 1+mask)[0])
		}
	}
	switch {
	case id < 2*rem && id%2 == 0:
		acc = c.RecvFloats(id+1, 2)[0]
	case id < 2*rem:
		c.SendFloats(id-1, 2, []float64{acc})
	}
	return acc
}

// Barrier synchronises the communicator's members (dissemination over
// communicator ranks).
func (c *Comm) Barrier() {
	p := c.Size()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		dst := (c.myRank + k) % p
		src := (c.myRank - k + p) % p
		c.Send(dst, 3+round, nil, 0)
		c.Recv(src, 3+round)
	}
}
