package decomp

import "testing"

// FuzzFactor3D checks the 3D grid factorisation invariants for arbitrary
// rank counts: the factors multiply back to p, are ordered px ≥ py ≥ pz,
// and the resulting grid's rank/coordinate maps are inverse bijections.
func FuzzFactor3D(f *testing.F) {
	f.Add(uint16(1))
	f.Add(uint16(2))
	f.Add(uint16(48))   // one A64FX node, one rank per core
	f.Add(uint16(64))   // perfect cube
	f.Add(uint16(97))   // prime
	f.Add(uint16(4920)) // ARCHER's full node count
	f.Fuzz(func(t *testing.T, pRaw uint16) {
		p := int(pRaw)
		px, py, pz := Factor3D(p)
		if p < 1 {
			if px != 1 || py != 1 || pz != 1 {
				t.Fatalf("Factor3D(%d) = %d,%d,%d, want 1,1,1", p, px, py, pz)
			}
			return
		}
		if px*py*pz != p {
			t.Fatalf("Factor3D(%d) = %d·%d·%d = %d", p, px, py, pz, px*py*pz)
		}
		if px < py || py < pz || pz < 1 {
			t.Fatalf("Factor3D(%d) = %d,%d,%d not ordered", p, px, py, pz)
		}
		g := NewGrid3D(p)
		if g.Size() != p {
			t.Fatalf("grid size %d, want %d", g.Size(), p)
		}
		// Rank ↔ coordinate round trip, sampled across the grid.
		step := 1
		if p > 64 {
			step = p / 64
		}
		for r := 0; r < p; r += step {
			x, y, z := g.Coords(r)
			if back := g.Rank(x, y, z); back != r {
				t.Fatalf("p=%d rank %d → (%d,%d,%d) → %d", p, r, x, y, z, back)
			}
			for f, nbr := range g.Neighbors(r) {
				if nbr < -1 || nbr >= p {
					t.Fatalf("p=%d rank %d: neighbour %d across face %d", p, r, nbr, f)
				}
			}
		}
		// Out-of-grid coordinates must map to -1, not a live rank.
		if g.Rank(-1, 0, 0) != -1 || g.Rank(g.PX, 0, 0) != -1 {
			t.Fatal("out-of-grid coordinates must return -1")
		}
	})
}
