package decomp

import (
	"fmt"
	"testing"

	"a64fxbench/internal/simmpi"
)

// BenchmarkExchange measures the host cost of one whole-job six-face
// halo exchange: every rank of a p-rank job on 4 nodes registers its
// faces once and calls Exchange once per op, so ns/op is the time to
// simulate one exchange of the job. Interior ranks of both grids (4×4×3
// and 8×8×8) have all six faces. The job is untraced, so once the
// arrivals repeat the shift memo replays the exchange.
func BenchmarkExchange(b *testing.B) {
	for _, p := range []int{48, 512} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			g := NewGrid3D(p)
			spec := HaloSpec{NX: 16, NY: 16, NZ: 16, Width: 1, Elem: 8}
			b.ReportAllocs()
			_, err := simmpi.Run(testJob(p, 4), func(r *simmpi.Rank) error {
				halos, n := Halos(r.ID(), g, spec)
				nb := r.Neighborhood(halos[:n])
				for i := 0; i < b.N; i++ {
					Exchange(r, nb, 0)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
