// Package decomp provides the regular domain decompositions the
// benchmarks share: 1D chains and 3D process grids, neighbour
// identification, block partitions, and face-halo exchange over the
// simmpi runtime. A rank builds its face halos once (Halos, ChainHalos)
// and registers them as a persistent simmpi neighbourhood; Exchange
// then runs one exchange of it. Exchange is a collective: every rank of
// the job must call it.
package decomp

import (
	"fmt"

	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// Factor3D factors p into the most cubic process grid px·py·pz = p, with
// px ≥ py ≥ pz as balanced as possible — the decomposition HPCG uses.
func Factor3D(p int) (px, py, pz int) {
	if p < 1 {
		return 1, 1, 1
	}
	best := [3]int{p, 1, 1}
	bestScore := score3(p, 1, 1)
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b
			if s := score3(c, b, a); s < bestScore {
				best = [3]int{c, b, a}
				bestScore = s
			}
		}
	}
	return best[0], best[1], best[2]
}

// score3 measures how far a factorisation is from cubic (lower is better).
func score3(a, b, c int) int {
	max, min := a, a
	for _, v := range []int{b, c} {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	return max - min
}

// Grid3D is a 3D process grid of PX×PY×PZ ranks.
type Grid3D struct {
	PX, PY, PZ int
}

// NewGrid3D builds the most cubic grid for p ranks.
func NewGrid3D(p int) Grid3D {
	px, py, pz := Factor3D(p)
	return Grid3D{PX: px, PY: py, PZ: pz}
}

// Size returns the total rank count.
func (g Grid3D) Size() int { return g.PX * g.PY * g.PZ }

// Coords maps a rank to its (x, y, z) grid position (x fastest).
func (g Grid3D) Coords(rank int) (x, y, z int) {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("decomp: rank %d outside grid %dx%dx%d", rank, g.PX, g.PY, g.PZ))
	}
	x = rank % g.PX
	y = (rank / g.PX) % g.PY
	z = rank / (g.PX * g.PY)
	return
}

// Rank maps grid coordinates to a rank, or -1 if outside the grid.
func (g Grid3D) Rank(x, y, z int) int {
	if x < 0 || x >= g.PX || y < 0 || y >= g.PY || z < 0 || z >= g.PZ {
		return -1
	}
	return x + g.PX*(y+g.PY*z)
}

// Face identifies one of the six axis-aligned faces of a subdomain.
type Face int

// The six faces, in exchange order.
const (
	XMinus Face = iota
	XPlus
	YMinus
	YPlus
	ZMinus
	ZPlus
	NumFaces
)

// FaceBytes reports the wire size of one face halo of a local nx×ny×nz
// block with the given halo width and element size.
func FaceBytes(f Face, nx, ny, nz, width int, elem units.Bytes) units.Bytes {
	var cells int
	switch f {
	case XMinus, XPlus:
		cells = ny * nz
	case YMinus, YPlus:
		cells = nx * nz
	case ZMinus, ZPlus:
		cells = nx * ny
	default:
		panic("decomp: invalid face")
	}
	return units.Bytes(cells*width) * elem
}

// HaloSpec describes one face-halo exchange: the local block extents, the
// halo width in cells, and the per-cell payload size.
type HaloSpec struct {
	NX, NY, NZ int
	Width      int
	Elem       units.Bytes
}

// Halos returns rank's six-face halo list on the grid, as an array and
// the count of its leading entries in use, so the list stays off the
// heap: one halo per existing neighbour, in face order. Face f's message
// goes out with tag offset f, and the neighbour's matching opposite face
// comes back with offset opposite(f). Wire sizes are declared exactly;
// like every simulated message, a halo carries bytes, not data.
func Halos(rank int, g Grid3D, spec HaloSpec) ([NumFaces]simmpi.Halo, int) {
	var halos [NumFaces]simmpi.Halo
	n := 0
	for f, nbr := range g.Neighbors(rank) {
		if nbr < 0 {
			continue
		}
		face := Face(f)
		halos[n] = simmpi.Halo{
			Peer:    nbr,
			SendTag: int(face),
			RecvTag: int(opposite(face)),
			Bytes:   FaceBytes(face, spec.NX, spec.NY, spec.NZ, spec.Width, spec.Elem),
		}
		n++
	}
	return halos, n
}

// Exchange performs one face-halo exchange of the registered
// neighbourhood nb under the halo region: a simmpi.Rank.NeighborExchange,
// a collective over the whole job, so every rank of the job must call
// Exchange, in the same sequence. The tag separates the face tags of
// successive exchanges.
func Exchange(r *simmpi.Rank, nb simmpi.Neighborhood, tag int) {
	r.Region("halo")
	r.NeighborExchange(nb, tag)
	r.EndRegion()
}

// ChainHalos returns rank's halos in a 1D chain of the first n ranks:
// one to each adjacent rank of the chain, sent and received with the
// exchange's own tag (offset 0). Ranks at or beyond n are idle and get
// none, but must still join the exchange.
func ChainHalos(rank, n int, bytes units.Bytes) []simmpi.Halo {
	var halos []simmpi.Halo
	if rank > 0 && rank < n {
		halos = append(halos, simmpi.Halo{Peer: rank - 1, Bytes: bytes})
	}
	if rank < n-1 {
		halos = append(halos, simmpi.Halo{Peer: rank + 1, Bytes: bytes})
	}
	return halos
}

// Neighbors returns the rank across each face, indexed by Face, with -1
// where the face lies on the grid boundary. It decodes the rank's grid
// coordinates once for all six faces.
func (g Grid3D) Neighbors(rank int) [NumFaces]int {
	x, y, z := g.Coords(rank)
	return [NumFaces]int{
		XMinus: g.Rank(x-1, y, z),
		XPlus:  g.Rank(x+1, y, z),
		YMinus: g.Rank(x, y-1, z),
		YPlus:  g.Rank(x, y+1, z),
		ZMinus: g.Rank(x, y, z-1),
		ZPlus:  g.Rank(x, y, z+1),
	}
}

// opposite returns the facing face.
func opposite(f Face) Face {
	switch f {
	case XMinus:
		return XPlus
	case XPlus:
		return XMinus
	case YMinus:
		return YPlus
	case YPlus:
		return YMinus
	case ZMinus:
		return ZPlus
	case ZPlus:
		return ZMinus
	}
	panic("decomp: invalid face")
}

// BlockPartition splits n items over p parts: part i gets Part(i) items,
// with the remainder spread over the first parts — the distribution COSA
// uses for blocks over processes.
type BlockPartition struct {
	N, P int
}

// Part reports the item count of part i.
func (b BlockPartition) Part(i int) int {
	if b.P <= 0 || i < 0 || i >= b.P {
		return 0
	}
	base := b.N / b.P
	if i < b.N%b.P {
		return base + 1
	}
	return base
}

// MaxPart reports the largest part size (the load-balance bottleneck).
func (b BlockPartition) MaxPart() int {
	if b.P <= 0 {
		return 0
	}
	return b.Part(0)
}

// ActiveParts reports how many parts receive at least one item.
func (b BlockPartition) ActiveParts() int {
	if b.P <= 0 {
		return 0
	}
	if b.N >= b.P {
		return b.P
	}
	return b.N
}
