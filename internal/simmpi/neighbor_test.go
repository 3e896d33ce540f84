package simmpi

// Tests of the persistent-neighbourhood API: registration order and
// storage, per-exchange tags, and the misuses that must fail a job
// rather than hang it.

import (
	"fmt"
	"strings"
	"testing"

	"a64fxbench/internal/units"
)

// TestNeighborhoodLateAndLong registers neighbourhoods only after earlier
// collectives have run, interleaves them with short ones, and gives rank
// 0 a list longer than a registry chunk, so lists start new chunks and
// one gets a chunk of its own. Traced and untraced, the job must equal
// the reference oracle.
func TestNeighborhoodLateAndLong(t *testing.T) {
	t.Parallel()
	body := func(r *Rank, cs *collSet) error {
		id, p := r.ID(), r.Size()
		r.Compute(vecWork(100 * (1 + id)))
		cs.Allreduce(r, 8)
		cs.Barrier(r)
		right, left := (id+1)%p, (id-1+p)%p
		short := r.Neighborhood([]Halo{
			{Peer: right, SendTag: 0, RecvTag: 1, Bytes: 64},
			{Peer: left, SendTag: 1, RecvTag: 0, Bytes: units.Bytes(16 * (1 + id))},
		})
		// Rank 0 sends nbChunk+3 messages to its right neighbour, which
		// receives them all; everyone else trades one each way.
		var long []Halo
		switch {
		case id == 0:
			for k := 0; k < nbChunk+3; k++ {
				long = append(long, Halo{Peer: right, SendTag: 2, Bytes: units.Bytes(8 * (1 + k%5))})
			}
		case id == 1%p:
			for k := 0; k < nbChunk+3; k++ {
				long = append(long, Halo{Peer: 0, RecvTag: 2})
			}
		}
		nbLong := r.Neighborhood(long)
		cs.NeighborExchange(r, short, 0)
		cs.NeighborExchange(r, nbLong, 10)
		cs.Allreduce(r, 8)
		cs.NeighborExchange(r, short, 20)
		return nil
	}
	for _, traced := range []bool{false, true} {
		assertCollectiveEquivalent(t, cfg(3, 2), traced, body)
	}
}

// TestNeighborhoodTags exchanges one neighbourhood under two tags: the
// wire tags of every send and receive in the trace are the exchange's
// tag plus the halo's offsets.
func TestNeighborhoodTags(t *testing.T) {
	t.Parallel()
	c := cfg(2, 2)
	var events Timeline
	c.Trace = func(job *Report) { events = job.Events }
	_, err := Run(c, func(r *Rank) error {
		other := 1 - r.ID()
		send, recv := 1, 2
		if r.ID() == 1 {
			send, recv = recv, send
		}
		nb := r.Neighborhood([]Halo{{Peer: other, SendTag: send, RecvTag: recv, Bytes: 32}})
		r.NeighborExchange(nb, 100)
		r.NeighborExchange(nb, 200)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range events {
		if e.Kind == EvSend || e.Kind == EvRecv {
			got = append(got, fmt.Sprintf("%s %d→%d tag %d", e.Kind, e.Rank, e.Peer, e.Tag))
		}
	}
	want := []string{
		"send 0→1 tag 101", "send 1→0 tag 102", "recv 0→1 tag 102", "recv 1→0 tag 101",
		"send 0→1 tag 201", "send 1→0 tag 202", "recv 0→1 tag 202", "recv 1→0 tag 201",
	}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("halo events:\n got  %q\n want %q", got, want)
	}
}

// TestNeighborhoodMisuse: every way of passing the wrong neighbourhood
// to an exchange fails the job with a diagnostic instead of hanging it.
func TestNeighborhoodMisuse(t *testing.T) {
	t.Parallel()
	ring := func(r *Rank) []Halo {
		p := r.Size()
		return []Halo{{Peer: (r.ID() + 1) % p, Bytes: 8}, {Peer: (r.ID() - 1 + p) % p, Bytes: 8}}
	}
	cases := []struct {
		name string
		body func(r *Rank) error
		want string
	}{
		{"different handles", func(r *Rank) error {
			a, b := r.Neighborhood(ring(r)), r.Neighborhood(nil)
			if r.ID() == 2 {
				a = b
			}
			r.NeighborExchange(a, 0)
			return nil
		}, "rank 2 panicked: simmpi: collective mismatch: rank 2 entered NeighborExchange of neighbourhood 2 with tag 0 while others are in neighbourhood 1 with tag 0"},
		{"different tags", func(r *Rank) error {
			nb := r.Neighborhood(ring(r))
			r.NeighborExchange(nb, r.ID()/2)
			return nil
		}, "collective mismatch: rank 2 entered NeighborExchange of neighbourhood 1 with tag 1 while others are in neighbourhood 1 with tag 0"},
		{"zero handle", func(r *Rank) error {
			r.Neighborhood(ring(r))
			r.NeighborExchange(Neighborhood{}, 0)
			return nil
		}, "registered no neighbourhood 0"},
		{"unregistered handle", func(r *Rank) error {
			nb := r.Neighborhood(ring(r))
			if r.ID() == 1 {
				nb = Neighborhood{id: 2}
			}
			r.NeighborExchange(nb, 0)
			return nil
		}, "rank 1 panicked: simmpi: NeighborExchange: rank 1 registered no neighbourhood 2"},
		{"offset beyond 32 bits", func(r *Rank) error {
			r.NeighborExchange(r.Neighborhood([]Halo{{Peer: 0, SendTag: 1 << 40}}), 0)
			return nil
		}, "overflows 32 bits"},
	}
	for _, c := range cases {
		_, err := Run(cfg(4, 2), c.body)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want an error containing %q, got %v", c.name, c.want, err)
		}
	}
}
