// Package decomp provides the regular domain decompositions the
// benchmarks share: 1D/2D/3D process grids, neighbour identification, and
// face-halo exchange over the simmpi runtime.
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

// Factor2D factors p into the most square px·py = p grid with px ≥ py.
func Factor2D(p int) (px, py int) {
	if p < 1 {
		return 1, 1
	}
	best := [2]int{p, 1}
	for a := 1; a*a <= p; a++ {
		if p%a == 0 {
			best = [2]int{p / a, a}
		}
	}
	return best[0], best[1]
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

// Exchange performs a six-face halo exchange for the given rank on the
// grid: each existing neighbour receives this rank's face and supplies its
// own. Wire sizes are declared exactly; payloads are placeholder slices
// (the runtime meters bytes, not payload length). The tag parameter
// separates concurrent exchanges.
func Exchange(r *simmpi.Rank, g Grid3D, spec HaloSpec, tag int) {
	r.Region("halo")
	defer r.EndRegion()
	type pending struct {
		nbr  int
		face Face
	}
	// At most one receive per face: a fixed array keeps the pending list
	// off the heap.
	var posts [NumFaces]pending
	n := 0
	// Post all sends first (eager), then drain receives — the standard
	// deadlock-free ordering.
	for f := XMinus; f < NumFaces; f++ {
		nbr := neighborOf(g, r.ID(), f)
		if nbr < 0 {
			continue
		}
		bytes := FaceBytes(f, spec.NX, spec.NY, spec.NZ, spec.Width, spec.Elem)
		r.Send(nbr, tag+int(f), nil, bytes)
		posts[n] = pending{nbr, f}
		n++
	}
	for _, p := range posts[:n] {
		// The neighbour sent its matching opposite face with the
		// opposite face's tag.
		r.Recv(p.nbr, tag+int(opposite(p.face)))
	}
}

// neighborOf computes the neighbour across a face (all six handled).
func neighborOf(g Grid3D, rank int, f Face) int {
	x, y, z := g.Coords(rank)
	switch f {
	case XMinus:
		return g.Rank(x-1, y, z)
	case XPlus:
		return g.Rank(x+1, y, z)
	case YMinus:
		return g.Rank(x, y-1, z)
	case YPlus:
		return g.Rank(x, y+1, z)
	case ZMinus:
		return g.Rank(x, y, z-1)
	case ZPlus:
		return g.Rank(x, y, z+1)
	}
	panic("decomp: invalid face")
}

// NeighborAcross is the exported form of neighborOf.
func (g Grid3D) NeighborAcross(rank int, f Face) int { return neighborOf(g, rank, f) }

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

// CountInteriorNeighbors reports how many of the six neighbours exist for
// a rank — useful for load metrics in tests.
func (g Grid3D) CountInteriorNeighbors(rank int) int {
	n := 0
	for f := XMinus; f < NumFaces; f++ {
		if neighborOf(g, rank, f) >= 0 {
			n++
		}
	}
	return n
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
