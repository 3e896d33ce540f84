package topo

import (
	"testing"
	"testing/quick"
)

func TestTorusBasics(t *testing.T) {
	t.Parallel()
	tor := &Torus{Dims: []int{4, 4}}
	if tor.MaxNodes() != 16 {
		t.Errorf("MaxNodes = %d", tor.MaxNodes())
	}
	if tor.Hops(0, 0) != 0 {
		t.Error("self distance must be 0")
	}
	// Node 0 = (0,0), node 5 = (1,1): distance 2.
	if got := tor.Hops(0, 5); got != 2 {
		t.Errorf("Hops(0,5) = %d, want 2", got)
	}
	// Wraparound: (0,0) to (3,0) is 1 hop around the ring, node 12.
	if got := tor.Hops(0, 12); got != 1 {
		t.Errorf("wraparound Hops(0,12) = %d, want 1", got)
	}
	// Maximum distance in a 4-ring is 2: (0,0)->(2,2) = node 10.
	if got := tor.Hops(0, 10); got != 4 {
		t.Errorf("Hops(0,10) = %d, want 4", got)
	}
}

func TestNewTofuD(t *testing.T) {
	t.Parallel()
	tf := NewTofuD(48)
	if tf.MaxNodes() < 48 {
		t.Errorf("TofuD for 48 nodes only covers %d", tf.MaxNodes())
	}
	// Unit group structure preserved: last three dims are 2,3,2.
	d := tf.Dims
	if len(d) != 5 || d[2] != 2 || d[3] != 3 || d[4] != 2 {
		t.Errorf("dims = %v", d)
	}
	if NewTofuD(0).MaxNodes() < 1 {
		t.Error("degenerate TofuD must cover at least one node")
	}
}

func TestDragonflyHops(t *testing.T) {
	t.Parallel()
	d := NewAries()
	if d.Hops(3, 3) != 0 {
		t.Error("self distance must be 0")
	}
	// Same router: nodes 0-3 share router 0.
	if got := d.Hops(0, 3); got != 2 {
		t.Errorf("same-router hops = %d, want 2", got)
	}
	// Same group, different router.
	if got := d.Hops(0, 4); got != 3 {
		t.Errorf("same-group hops = %d, want 3", got)
	}
	// Different group: beyond 96 routers × 4 nodes = 384.
	if got := d.Hops(0, 400); got != 5 {
		t.Errorf("cross-group hops = %d, want 5", got)
	}
	if d.MaxNodes() != 0 {
		t.Error("dragonfly should be unbounded")
	}
}

func TestFatTreeHops(t *testing.T) {
	t.Parallel()
	f := &FatTree{NodesPerLeaf: 24}
	if f.Hops(1, 1) != 0 {
		t.Error("self distance must be 0")
	}
	if got := f.Hops(0, 23); got != 2 {
		t.Errorf("same-leaf hops = %d, want 2", got)
	}
	if got := f.Hops(0, 24); got != 4 {
		t.Errorf("cross-leaf hops = %d, want 4", got)
	}
}

func TestMeanHops(t *testing.T) {
	t.Parallel()
	f := &FatTree{NodesPerLeaf: 2}
	// Nodes 0..3: pairs (0,1)=2 (2,3)=2 (0,2)(0,3)(1,2)(1,3)=4.
	// Mean = (2+2+4*4)/6 = 20/6.
	got := MeanHops(f, 4)
	want := 20.0 / 6.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("MeanHops = %v, want %v", got, want)
	}
	if MeanHops(f, 1) != 0 {
		t.Error("single node mean must be 0")
	}
	// Bounded topology clamps n.
	tor := &Torus{Dims: []int{2}}
	if MeanHops(tor, 100) != 1 {
		t.Errorf("clamped mean = %v, want 1", MeanHops(tor, 100))
	}
}

// Properties of any metric: symmetry, identity, triangle inequality.
func metricProps(t *testing.T, name string, topoImpl Topology, n int) {
	t.Helper()
	f := func(aRaw, bRaw, cRaw uint16) bool {
		a, b, c := int(aRaw)%n, int(bRaw)%n, int(cRaw)%n
		hab := topoImpl.Hops(a, b)
		hba := topoImpl.Hops(b, a)
		if hab != hba {
			return false
		}
		if a == b && hab != 0 {
			return false
		}
		if a != b && hab <= 0 {
			return false
		}
		// Triangle inequality.
		return topoImpl.Hops(a, c) <= hab+topoImpl.Hops(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("%s metric properties: %v", name, err)
	}
}

func TestMetricProperties(t *testing.T) {
	t.Parallel()
	metricProps(t, "torus", &Torus{Dims: []int{3, 4, 2}}, 24)
	metricProps(t, "tofud", NewTofuD(48), NewTofuD(48).MaxNodes())
	metricProps(t, "dragonfly", NewAries(), 1000)
	metricProps(t, "fattree", &FatTree{NodesPerLeaf: 24}, 500)
}

func TestMeanHopsSampledPath(t *testing.T) {
	t.Parallel()
	// Above the exact-enumeration limit the sampled estimate must stay
	// close to the structural expectation. For a fat tree with small
	// leaves almost every pair is cross-leaf (4 hops).
	f := &FatTree{NodesPerLeaf: 2}
	got := MeanHops(f, 100000)
	if got < 3.9 || got > 4.0 {
		t.Errorf("sampled fat-tree mean = %v, want ≈4", got)
	}
	// Deterministic: same inputs, same estimate.
	if again := MeanHops(f, 100000); again != got {
		t.Errorf("sampling not deterministic: %v vs %v", got, again)
	}
	// Torus at Fugaku-ish scale completes quickly and lands within the
	// torus diameter bound.
	big := NewTofuD(158976)
	m := MeanHops(big, 158976)
	maxHops := 0
	for _, d := range big.Dims {
		maxHops += d / 2
	}
	if m <= 0 || m > float64(maxHops) {
		t.Errorf("TofuD mean hops %v outside (0, %d]", m, maxHops)
	}
}

func TestMeanHopsExactSampledAgree(t *testing.T) {
	t.Parallel()
	// Near the threshold the two estimators agree closely.
	tor := &Torus{Dims: []int{8, 8, 8}} // 512 nodes = exact limit
	exact := MeanHops(tor, 512)
	// Force the sampled path with a 1024-node torus of the same shape
	// scaled: compare against its exact value computed by brute force.
	tor2 := &Torus{Dims: []int{16, 8, 8}}
	sampled := MeanHops(tor2, 1024)
	brute := 0.0
	cnt := 0
	for a := 0; a < 1024; a++ {
		for b := a + 1; b < 1024; b++ {
			brute += float64(tor2.Hops(a, b))
			cnt++
		}
	}
	brute /= float64(cnt)
	if rel := (sampled - brute) / brute; rel > 0.02 || rel < -0.02 {
		t.Errorf("sampled %v vs exact %v (%.2f%% off)", sampled, brute, rel*100)
	}
	_ = exact
}
