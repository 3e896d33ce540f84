package simmpi

// Message pricing. The fabric prices a message from its hop count and its
// size alone (netmodel.Fabric.HopPrice), so each job keeps two small
// tables in front of the fabric model:
//
//   - hop counts per node pair, in a direct-mapped table indexed by the
//     pair's number a·nodes+b. It has one slot per pair for jobs of up
//     to 256 nodes, so each pair asks the topology once; a larger job's
//     pairs share its maxHopSlots slots, and a pair whose slot another
//     pair took asks the topology again. Either way the table holds at
//     most maxHopSlots slots.
//   - prices per (hops, bytes), in a direct-mapped table of priceSlots
//     slots. A job sends few distinct sizes (halo faces, reduction
//     operands, collective rounds), so nearly every message hits.
//
// A slot holds exactly what the model returned for its key, so a price
// read from the tables is the fabric's own price, bit for bit. The
// congested replay's dilated prices read their hop counts from the same
// hop table.

import (
	"math"

	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/units"
)

const (
	// maxHopSlots bounds a job's hop table: 1 MiB of slots, one per
	// pair of a 256-node job.
	maxHopSlots = 1 << 16
	// priceBits sizes the price table: 2^priceBits slots.
	priceBits  = 8
	priceSlots = 1 << priceBits
	// emptyHops marks an unused price slot; no hop count takes it.
	emptyHops = math.MinInt
)

// hopSlot caches the hop count of one node pair; pair is the pair's
// number plus one, so the zero slot is empty.
type hopSlot struct {
	pair int
	hops int
}

// priceSlot caches the contention-free price d of a message of bytes
// crossing hops hops (-1 within a node).
type priceSlot struct {
	hops  int
	bytes units.Bytes
	d     units.Duration
}

// pricer is a job's message pricing: its fabric and the two tables in
// front of it. Only the running rank touches it.
type pricer struct {
	fabric *netmodel.Fabric
	nodes  int
	hopTab []hopSlot // allocated at the job's first inter-node message
	tab    [priceSlots]priceSlot
}

// init readies p for a job of nodes nodes on fabric f.
func (p *pricer) init(f *netmodel.Fabric, nodes int) {
	p.fabric, p.nodes = f, nodes
	for i := range p.tab {
		p.tab[i].hops = emptyHops
	}
}

// hops returns the hop count of a message from node a to node b, as
// HopPrice takes it: -1 within a node, the topology's distance
// otherwise.
func (p *pricer) hops(a, b int) int {
	if a == b {
		return -1
	}
	if p.hopTab == nil {
		n := 1
		for n < p.nodes*p.nodes && n < maxHopSlots {
			n <<= 1
		}
		p.hopTab = make([]hopSlot, n)
	}
	pair := a*p.nodes + b
	s := &p.hopTab[pair&(len(p.hopTab)-1)]
	if s.pair != pair+1 {
		*s = hopSlot{pair: pair + 1, hops: p.fabric.Topo.Hops(a, b)}
	}
	return s.hops
}

// price is the contention-free price of a message of bytes from node a
// to node b: the fabric's PointToPoint(a, b, bytes).
func (p *pricer) price(a, b int, bytes units.Bytes) units.Duration {
	h := p.hops(a, b)
	key := uint64(bytes)<<8 ^ uint64(h+1)
	s := &p.tab[key*0x9E3779B97F4A7C15>>(64-priceBits)]
	if s.hops != h || s.bytes != bytes {
		*s = priceSlot{hops: h, bytes: bytes, d: p.fabric.HopPrice(h, bytes, 1)}
	}
	return s.d
}

// dilated prices a message of bytes from node a to node b with its
// serialization stretched by dil: the fabric's PointToPointDilated(a, b,
// bytes, dil), at the hop count the job's table holds.
func (p *pricer) dilated(a, b int, bytes units.Bytes, dil float64) units.Duration {
	return p.fabric.HopPrice(p.hops(a, b), bytes, dil)
}
