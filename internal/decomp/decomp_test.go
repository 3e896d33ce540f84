package decomp

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
)

func TestFactor3D(t *testing.T) {
	t.Parallel()
	cases := []struct {
		p          int
		px, py, pz int
	}{
		{1, 1, 1, 1},
		{8, 2, 2, 2},
		{48, 4, 4, 3},
		{64, 4, 4, 4},
		{24, 4, 3, 2},
		{7, 7, 1, 1},
		{0, 1, 1, 1},
	}
	for _, c := range cases {
		px, py, pz := Factor3D(c.p)
		if px != c.px || py != c.py || pz != c.pz {
			t.Errorf("Factor3D(%d) = %d,%d,%d want %d,%d,%d", c.p, px, py, pz, c.px, c.py, c.pz)
		}
	}
}

func TestGridCoordsRoundTrip(t *testing.T) {
	t.Parallel()
	g := NewGrid3D(48)
	if g.Size() != 48 {
		t.Fatalf("size = %d", g.Size())
	}
	for r := 0; r < g.Size(); r++ {
		x, y, z := g.Coords(r)
		if back := g.Rank(x, y, z); back != r {
			t.Errorf("rank %d → (%d,%d,%d) → %d", r, x, y, z, back)
		}
	}
}

func TestCoordsPanicsOutOfRange(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGrid3D(8).Coords(8)
}

func TestNeighbors(t *testing.T) {
	t.Parallel()
	g := Grid3D{PX: 2, PY: 2, PZ: 2}
	// Rank 0 is at (0,0,0): neighbours exist only in + directions.
	want := [NumFaces]int{XMinus: -1, XPlus: 1, YMinus: -1, YPlus: 2, ZMinus: -1, ZPlus: 4}
	nbrs := g.Neighbors(0)
	if nbrs != want {
		t.Errorf("Neighbors(0) = %v, want %v", nbrs, want)
	}
	n := 0
	for _, nbr := range nbrs {
		if nbr >= 0 {
			n++
		}
	}
	if n != 3 {
		t.Errorf("corner rank has %d neighbours", n)
	}
}

func TestChainHalos(t *testing.T) {
	t.Parallel()
	// A chain over the first 3 of 5 ranks: the ends have one neighbour,
	// the middle two, and ranks 3 and 4 are idle.
	want := [][]int{{1}, {0, 2}, {1}, nil, nil}
	for rank, peers := range want {
		halos := ChainHalos(rank, 3, 64)
		if len(halos) != len(peers) {
			t.Fatalf("rank %d: %d halos, want peers %v", rank, len(halos), peers)
		}
		for i, h := range halos {
			if h.Peer != peers[i] || h.SendTag != 0 || h.RecvTag != 0 || h.Bytes != 64 {
				t.Errorf("rank %d halo %d = %+v, want peer %d, tag offsets 0, 64 B", rank, i, h, peers[i])
			}
		}
	}
	if halos := ChainHalos(0, 1, 64); len(halos) != 0 {
		t.Errorf("a one-rank chain has halos %+v", halos)
	}
}

// TestHalos checks the six-face list: one halo per existing neighbour in
// face order, each sent with its face as tag offset and received with
// the opposite face's, sized by FaceBytes.
func TestHalos(t *testing.T) {
	t.Parallel()
	g := Grid3D{PX: 3, PY: 2, PZ: 2}
	spec := HaloSpec{NX: 4, NY: 5, NZ: 6, Width: 2, Elem: 8}
	for rank := 0; rank < g.Size(); rank++ {
		halos, n := Halos(rank, g, spec)
		var want []simmpi.Halo
		for f, nbr := range g.Neighbors(rank) {
			if nbr >= 0 {
				want = append(want, simmpi.Halo{Peer: nbr, SendTag: f, RecvTag: int(opposite(Face(f))),
					Bytes: FaceBytes(Face(f), 4, 5, 6, 2, 8)})
			}
		}
		if !slices.Equal(halos[:n], want) {
			t.Errorf("rank %d: halos %+v, want %+v", rank, halos[:n], want)
		}
	}
}

func TestFaceBytes(t *testing.T) {
	t.Parallel()
	// X faces of a 4×5×6 block with width 1 and 8-byte cells: 5·6·8.
	if got := FaceBytes(XPlus, 4, 5, 6, 1, 8); got != 240 {
		t.Errorf("X face = %d", got)
	}
	if got := FaceBytes(YMinus, 4, 5, 6, 2, 8); got != 4*6*2*8 {
		t.Errorf("Y face = %d", got)
	}
	if got := FaceBytes(ZPlus, 4, 5, 6, 1, 8); got != 4*5*8 {
		t.Errorf("Z face = %d", got)
	}
}

func testJob(p, nodes int) simmpi.JobConfig {
	model := &perfmodel.CostModel{
		Node: perfmodel.NodeCapability{
			Name: "t", Cores: 1,
			PeakFlops:          units.GFlopPerSec,
			ScalarFlopsPerCore: units.GFlopPerSec,
			Domains: []perfmodel.MemoryDomain{{
				Cores: 1, PeakBandwidth: units.GBPerSec,
				PerCoreBandwidth: units.GBPerSec, Capacity: units.GiB,
			}},
		},
	}
	return simmpi.JobConfig{
		Procs: p, Nodes: nodes, CostModel: model,
		Fabric: &netmodel.Fabric{
			Name: "t", Topo: &topo.FatTree{NodesPerLeaf: 4},
			SoftwareOverhead: units.Microsecond,
			HopLatency:       units.Duration(100 * units.Nanosecond),
			LinkBandwidth:    10 * units.GBPerSec,
		},
	}
}

func TestExchangeCompletes(t *testing.T) {
	t.Parallel()
	for _, p := range []int{1, 2, 4, 8, 12} {
		p := p
		g := NewGrid3D(p)
		spec := HaloSpec{NX: 8, NY: 8, NZ: 8, Width: 1, Elem: 8}
		rep, err := simmpi.Run(testJob(p, min(p, 4)), func(r *simmpi.Rank) error {
			halos, n := Halos(r.ID(), g, spec)
			nb := r.Neighborhood(halos[:n])
			for it := 0; it < 3; it++ {
				Exchange(r, nb, 100*it)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if p > 1 && rep.TotalMsgs == 0 {
			t.Errorf("p=%d: no messages exchanged", p)
		}
		if p == 1 && rep.TotalMsgs != 0 {
			t.Errorf("p=1 should exchange nothing, got %d msgs", rep.TotalMsgs)
		}
	}
}

func TestExchangeByteAccounting(t *testing.T) {
	t.Parallel()
	// 2 ranks in a 2×1×1 grid exchange one X face each per call.
	g := Grid3D{PX: 2, PY: 1, PZ: 1}
	spec := HaloSpec{NX: 4, NY: 5, NZ: 6, Width: 1, Elem: 8}
	rep, err := simmpi.Run(testJob(2, 2), func(r *simmpi.Rank) error {
		halos, n := Halos(r.ID(), g, spec)
		Exchange(r, r.Neighborhood(halos[:n]), 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPer := FaceBytes(XPlus, 4, 5, 6, 1, 8)
	if rep.TotalBytesSent != 2*wantPer {
		t.Errorf("bytes = %d, want %d", rep.TotalBytesSent, 2*wantPer)
	}
	if rep.TotalMsgs != 2 {
		t.Errorf("msgs = %d, want 2", rep.TotalMsgs)
	}
}

// TestExchangeAllocGuard pins steady-state allocations of a halo
// exchange: on a 2×2×2 grid every rank exchanges three faces per call,
// and a heap-grown pending list would cost three allocations each time.
// A long run minus a short one cancels the fixed job-setup allocations.
func TestExchangeAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per channel operation")
	}
	g := Grid3D{PX: 2, PY: 2, PZ: 2}
	spec := HaloSpec{NX: 8, NY: 8, NZ: 8, Width: 1, Elem: 8}
	mallocs := func(iters int) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := simmpi.Run(testJob(g.Size(), 2), func(r *simmpi.Rank) error {
			halos, n := Halos(r.ID(), g, spec)
			nb := r.Neighborhood(halos[:n])
			for it := 0; it < iters; it++ {
				Exchange(r, nb, 0)
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	const short, long = 50, 1050
	base, full := mallocs(short), mallocs(long)
	var extra uint64
	if full > base {
		extra = full - base
	}
	perCall := float64(extra) / float64((long-short)*g.Size())
	t.Logf("%d extra mallocs over %d calls (%.4f per call)", extra, (long-short)*g.Size(), perCall)
	if perCall > 0.1 {
		t.Fatalf("%.3f allocations per Exchange call; the halo exchange is allocating again", perCall)
	}
}

func TestBlockPartition(t *testing.T) {
	t.Parallel()
	b := BlockPartition{N: 800, P: 768}
	// 800 blocks over 768 procs: 32 procs get 2 blocks, rest get 1 —
	// the paper's Fig. 4 load-imbalance case.
	twos := 0
	total := 0
	for i := 0; i < b.P; i++ {
		p := b.Part(i)
		total += p
		if p == 2 {
			twos++
		} else if p != 1 {
			t.Errorf("part %d = %d", i, p)
		}
	}
	if twos != 32 || total != 800 {
		t.Errorf("twos = %d, total = %d", twos, total)
	}
	if b.MaxPart() != 2 {
		t.Errorf("MaxPart = %d", b.MaxPart())
	}
	// 800 blocks over 1024 procs: only 800 active (13 of 16 Fulhame
	// nodes do work).
	b = BlockPartition{N: 800, P: 1024}
	if b.ActiveParts() != 800 {
		t.Errorf("ActiveParts = %d", b.ActiveParts())
	}
	if b.Part(900) != 0 {
		t.Error("inactive part should be 0")
	}
	if (BlockPartition{N: 5, P: 0}).MaxPart() != 0 {
		t.Error("degenerate partition")
	}
}

// Property: Factor3D always multiplies back to p, ordered descending.
func TestFactor3DProperty(t *testing.T) {
	t.Parallel()
	f := func(raw uint16) bool {
		p := int(raw%2048) + 1
		a, b, c := Factor3D(p)
		return a*b*c == p && a >= b && b >= c && c >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: partition parts sum to N and differ by at most 1.
func TestBlockPartitionProperty(t *testing.T) {
	t.Parallel()
	f := func(nRaw, pRaw uint16) bool {
		n, p := int(nRaw%5000), int(pRaw%1024)+1
		b := BlockPartition{N: n, P: p}
		sum, maxP, minP := 0, 0, 1<<30
		for i := 0; i < p; i++ {
			v := b.Part(i)
			sum += v
			if v > maxP {
				maxP = v
			}
			if v < minP {
				minP = v
			}
		}
		return sum == n && maxP-minP <= 1 && b.MaxPart() == maxP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
