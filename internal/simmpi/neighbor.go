package simmpi

// Persistent neighbourhoods: a halo pattern declared once and started
// many times, as MPI-4's persistent neighbourhood collectives
// (MPI_Neighbor_alltoallv_init) declare it. Rank.Neighborhood registers
// a copy of the rank's halo list and returns its handle; NeighborExchange
// starts one exchange of it under a base tag. Registration is local to
// the body: it queues no op and never waits. The job validates a
// neighbourhood and resolves its matching — which of its peer's messages
// each receive takes — once, at its first exchange, so every exchange
// after that sends and receives along the resolved matching without
// searching.
//
// Storage. A registered halo is 24 bytes (nbHalo). The lists live in
// chunks of nbChunk halos from the job's pooled slab; a list never spans
// two chunks, and a list longer than a chunk gets a chunk of its own.
// Each neighbourhood keeps one span per rank into that store, so the
// registry grows by whole chunks, never by doubling and copying.

import (
	"fmt"

	"a64fxbench/internal/units"
)

// Halo is one face of a neighbourhood exchange: a message of Bytes sent
// to Peer, and a message Peer sent this rank. SendTag and RecvTag are
// offsets from the exchange's tag: the message goes out with tag
// tag+SendTag, and the receive takes one sent with tag+RecvTag.
type Halo struct {
	Peer, SendTag, RecvTag int
	Bytes                  units.Bytes
}

// Neighborhood is a handle to a halo pattern registered with
// Rank.Neighborhood. The zero value names none.
type Neighborhood struct{ id int }

// nbChunk is how many halos one chunk of the registry holds: 96 KiB.
const nbChunk = 1 << 12

// nbHalo is one registered halo: the peer, the send and receive tag
// offsets, and the wire size. match is, once the neighbourhood is
// resolved, the index of the message this halo receives among all the
// exchange's messages in send order (rank order, then list order).
type nbHalo struct {
	peer, send, recv, match int32
	bytes                   units.Bytes
}

// nbSpan locates one rank's list in the registry: n halos from off in
// chunk chunk. first is, once resolved, the index of the rank's first
// message in the exchange's send order.
type nbSpan struct {
	chunk, off, n, first int32
}

// neighborhood is one registered pattern: each rank's list, the number
// of messages an exchange of it sends, and whether its matching is
// resolved.
type neighborhood struct {
	spans    []nbSpan // by rank
	msgs     int
	resolved bool
}

// Neighborhood registers a copy of this rank's halo list as a persistent
// neighbourhood and returns its handle for NeighborExchange. Every rank
// registers its neighbourhoods in the same order — a rank with no
// neighbours registering an empty list — so the k-th registration of
// every rank forms one pattern. The list is copied; the caller may
// reuse it at once. Registering queues no operation and never waits.
func (r *Rank) Neighborhood(halos []Halo) Neighborhood {
	e := r.eng
	k := r.nbs
	r.nbs++
	if k == len(e.nbs) {
		// The first rank to register its k-th neighbourhood opens it,
		// reusing the pooled spans of an earlier job's k-th.
		if k < cap(e.nbs) {
			e.nbs = e.nbs[:k+1]
			e.nbs[k] = neighborhood{spans: grown(e.nbs[k].spans, len(e.ranks))}
		} else {
			e.nbs = append(e.nbs, neighborhood{spans: make([]nbSpan, len(e.ranks))})
		}
	}
	nb := &e.nbs[k]
	list, sp := e.store(len(halos))
	for i, h := range halos {
		if int(int32(h.Peer)) != h.Peer || int(int32(h.SendTag)) != h.SendTag || int(int32(h.RecvTag)) != h.RecvTag {
			panic(fmt.Sprintf("simmpi: Neighborhood: rank %d halo %d (peer %d, tag offsets %d and %d) overflows 32 bits",
				r.id, i, h.Peer, h.SendTag, h.RecvTag))
		}
		list[i] = nbHalo{peer: int32(h.Peer), send: int32(h.SendTag), recv: int32(h.RecvTag), bytes: h.Bytes}
	}
	nb.spans[r.id] = sp
	nb.msgs += len(halos)
	return Neighborhood{id: k + 1}
}

// NeighborExchange performs one exchange of the neighbourhood nb (MPI's
// Neighbor_alltoallv): every halo's message is sent with tag
// tag+SendTag, in list order, and then every halo's message is received,
// in list order, each matched to the first message of this exchange its
// peer addressed to this rank with tag tag+RecvTag that no earlier
// receive took. It is a world collective: every rank must call it, with
// the same handle and tag. Messages match only within one exchange,
// never against point-to-point traffic, and a message no halo receives
// is dropped; a receive nothing matches, or a peer outside [0, Size),
// fails the job at the neighbourhood's first exchange. Halo time is not
// collective time: it stays out of the PMU's collective counters. The
// body does not wait for the exchange.
func (r *Rank) NeighborExchange(nb Neighborhood, tag int) {
	if nb.id < 1 || nb.id > r.nbs {
		panic(fmt.Sprintf("simmpi: NeighborExchange: rank %d registered no neighbourhood %d", r.id, nb.id))
	}
	r.push(rankOp{kind: opNeighbor, a: nb.id - 1, b: tag})
}

// store returns room for a list of n halos in the registry and the span
// that locates it.
func (e *eventEngine) store(n int) ([]nbHalo, nbSpan) {
	if n == 0 {
		return nil, nbSpan{}
	}
	s := e.slab
	if e.chunks == 0 || e.used+n > len(s.chunks[e.chunks-1]) {
		if e.chunks == len(s.chunks) {
			s.chunks = append(s.chunks, nil)
		}
		if len(s.chunks[e.chunks]) < n {
			s.chunks[e.chunks] = make([]nbHalo, max(nbChunk, n))
		}
		e.chunks++
		e.used = 0
	}
	c := e.chunks - 1
	sp := nbSpan{chunk: int32(c), off: int32(e.used), n: int32(n)}
	e.used += n
	return s.chunks[c][sp.off:e.used], sp
}

// list returns rank id's halo list in nb.
func (e *eventEngine) list(nb *neighborhood, id int) []nbHalo {
	sp := nb.spans[id]
	if sp.n == 0 {
		return nil
	}
	return e.slab.chunks[sp.chunk][sp.off : sp.off+sp.n]
}

// resolve validates nb at its first exchange, whose tag is tag, and
// resolves its matching: each receive, in rank order and list order,
// takes the first message its peer addressed to it with its tag offset
// that no earlier receive took — the FIFO rule of a point-to-point
// route. Every rank passes the same tag, so offsets match exactly when
// wire tags do, and the matching holds for every later exchange.
func (e *eventEngine) resolve(nb *neighborhood, tag int) {
	p := len(e.ranks)
	n := 0
	for id := range e.ranks {
		nb.spans[id].first = int32(n)
		for _, h := range e.list(nb, id) {
			if h.peer < 0 || int(h.peer) >= p {
				panic(fmt.Sprintf("simmpi: NeighborExchange: rank %d names peer %d outside [0, %d) (send tag %d, recv tag %d)",
					id, h.peer, p, tag+int(h.send), tag+int(h.recv)))
			}
			n++
		}
	}
	taken := make([]bool, n)
	for id := range e.ranks {
		list := e.list(nb, id)
		for i := range list {
			h := &list[i]
			from, first := e.list(nb, int(h.peer)), int(nb.spans[h.peer].first)
			k := 0
			for k < len(from) && (taken[first+k] || int(from[k].peer) != id || from[k].send != h.recv) {
				k++
			}
			if k == len(from) {
				panic(fmt.Sprintf("simmpi: NeighborExchange: rank %d expects tag %d from peer %d, which sent it no such message in this exchange",
					id, tag+int(h.recv), h.peer))
			}
			taken[first+k] = true
			h.match = int32(first + k)
		}
	}
	nb.resolved = true
}
