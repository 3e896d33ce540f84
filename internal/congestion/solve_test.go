package congestion

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// ring is a 1-D torus: routes between nodes are chains of dim0 links,
// which makes hand-computing max-min shares easy.
func ring(n int) *topo.Torus { return &topo.Torus{Dims: []int{n}} }

// flat prices every link at the same capacity.
func flat(c units.ByteRate) func(topo.Link) units.ByteRate {
	return func(topo.Link) units.ByteRate { return c }
}

func key(src, dst, tag, seq int) FlowKey { return FlowKey{Src: src, Dst: dst, Tag: tag, Seq: seq} }

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %.12f, want %.12f", name, got, want)
	}
}

func TestSoloFlowNoDilation(t *testing.T) {
	t.Parallel()
	sol := Solve(Config{Topo: ring(8), Capacity: flat(1e6)}, []Flow{
		{Key: key(0, 1, 7, 0), SrcNode: 0, DstNode: 1, Start: 0, Bytes: 1e6},
	})
	approx(t, "solo dilation", sol.Dilations[0], 1)
	if len(sol.Links.Links) != 1 {
		t.Fatalf("want 1 contended link, got %v", sol.Links.Links)
	}
	ls := sol.Links.Links[0]
	approx(t, "busy", ls.Busy.Seconds(), 1.0)
	approx(t, "util", ls.Util, 1.0)
	if ls.Flows != 1 || ls.PeakFlows != 1 {
		t.Errorf("flows = %d peak = %d, want 1/1", ls.Flows, ls.PeakFlows)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	t.Parallel()
	// Two simultaneous equal flows over the same link: each gets half
	// the bandwidth, so both take twice as long.
	flows := []Flow{
		{Key: key(0, 8, 1, 0), SrcNode: 0, DstNode: 1, Start: 0, Bytes: 1e6},
		{Key: key(1, 9, 1, 0), SrcNode: 0, DstNode: 1, Start: 0, Bytes: 1e6},
	}
	sol := Solve(Config{Topo: ring(8), Capacity: flat(1e6)}, flows)
	approx(t, "flow A dilation", sol.Dilations[0], 2)
	approx(t, "flow B dilation", sol.Dilations[1], 2)
	ls := sol.Links.Links[0]
	if ls.Flows != 2 || ls.PeakFlows != 2 {
		t.Errorf("flows = %d peak = %d, want 2/2", ls.Flows, ls.PeakFlows)
	}
	approx(t, "busy", ls.Busy.Seconds(), 2.0)
	approx(t, "span", sol.Links.Span.Seconds(), 2.0)
}

func TestDisjointFlowsDontInteract(t *testing.T) {
	t.Parallel()
	flows := []Flow{
		{Key: key(0, 1, 1, 0), SrcNode: 0, DstNode: 1, Start: 0, Bytes: 1e6},
		{Key: key(4, 5, 1, 0), SrcNode: 4, DstNode: 5, Start: 0, Bytes: 1e6},
	}
	sol := Solve(Config{Topo: ring(8), Capacity: flat(1e6)}, flows)
	approx(t, "A", sol.Dilations[0], 1)
	approx(t, "B", sol.Dilations[1], 1)
	if worst := slices.Max(sol.Dilations); worst != 1 {
		t.Errorf("max dilation = %v, want 1", worst)
	}
}

func TestMaxMinWaterfilling(t *testing.T) {
	t.Parallel()
	// Three flows on a chain 0-1-2 with link 0→1 at 1 MB/s and link
	// 1→2 at 10 MB/s:
	//   A: 0→1 (slow link only)      B: 0→2 (both)      C: 1→2 (fast only)
	// Max-min: A and B split the slow link at 0.5 MB/s; C gets the
	// fast link's remainder, 9.5 MB/s.
	cap := func(l topo.Link) units.ByteRate {
		if l.From == 0 {
			return 1e6
		}
		return 10e6
	}
	flows := []Flow{
		{Key: key(0, 0, 1, 0), SrcNode: 0, DstNode: 1, Start: 0, Bytes: 1e6},
		{Key: key(1, 0, 1, 0), SrcNode: 0, DstNode: 2, Start: 0, Bytes: 1e6},
		{Key: key(2, 0, 1, 0), SrcNode: 1, DstNode: 2, Start: 0, Bytes: 1e6},
	}
	sol := Solve(Config{Topo: ring(8), Capacity: cap}, flows)
	// A: ideal 1s at 1 MB/s, runs at 0.5 MB/s until B finishes — but B
	// finishes with A (same share, same bytes): both take 2s.
	approx(t, "A dilation", sol.Dilations[0], 2)
	approx(t, "B dilation", sol.Dilations[1], 2)
	// C: ideal 0.1s at 10 MB/s; shares with B at 9.5 MB/s until its
	// 1e6 bytes finish at t = 1/9.5e6 s, i.e. dilation 10/9.5.
	approx(t, "C dilation", sol.Dilations[2], 10.0/9.5)
}

func TestStaggeredArrivalsDilatePartially(t *testing.T) {
	t.Parallel()
	// B arrives halfway through A's solo transfer. A: 0.5s alone at
	// full rate, then 1s at half rate — finishes at 1.5s (dilation
	// 1.5). B: 1s at half rate, then 0.5s alone — finishes at 2.0s,
	// for a 1.5s transfer (dilation 1.5). The link never idles, so
	// busy == span == 2s and utilization is exactly 1.
	flows := []Flow{
		{Key: key(0, 0, 1, 0), SrcNode: 0, DstNode: 1, Start: 0, Bytes: 1e6},
		{Key: key(1, 0, 1, 0), SrcNode: 0, DstNode: 1, Start: vclock.Time(5e8), Bytes: 1e6},
	}
	sol := Solve(Config{Topo: ring(8), Capacity: flat(1e6)}, flows)
	approx(t, "A dilation", sol.Dilations[0], 1.5)
	approx(t, "B dilation", sol.Dilations[1], 1.5)
	approx(t, "span", sol.Links.Span.Seconds(), 2.0)
	ls := sol.Links.Links[0]
	approx(t, "busy", ls.Busy.Seconds(), 2.0)
	approx(t, "util", ls.Util, 1.0)
	if ls.PeakFlows != 2 {
		t.Errorf("peak = %d, want 2", ls.PeakFlows)
	}
}

func TestInjectionCapacityAddsHostLinks(t *testing.T) {
	t.Parallel()
	// Torus routes are switch-level; with InjectionCapacity set, two
	// flows leaving node 0 toward opposite ring directions — disjoint
	// torus links — still contend at node 0's injection port.
	flows := []Flow{
		{Key: key(0, 0, 1, 0), SrcNode: 0, DstNode: 1, Start: 0, Bytes: 1e6},
		{Key: key(1, 0, 1, 0), SrcNode: 0, DstNode: 7, Start: 0, Bytes: 1e6},
	}
	noInj := Solve(Config{Topo: ring(8), Capacity: flat(1e6)}, flows)
	approx(t, "no injection cap", slices.Max(noInj.Dilations), 1)
	inj := Solve(Config{Topo: ring(8), Capacity: flat(1e6), InjectionCapacity: 1e6}, flows)
	approx(t, "injection-shared A", inj.Dilations[0], 2)
	approx(t, "injection-shared B", inj.Dilations[1], 2)
}

func TestZeroByteAndIntraNodeFlowsIgnored(t *testing.T) {
	t.Parallel()
	sol := Solve(Config{Topo: ring(8), Capacity: flat(1e6)}, []Flow{
		{Key: key(0, 0, 1, 0), SrcNode: 0, DstNode: 1, Start: 0, Bytes: 0},
		{Key: key(1, 0, 1, 0), SrcNode: 3, DstNode: 3, Start: 0, Bytes: 1e6},
	})
	if len(sol.Links.Links) != 0 {
		t.Errorf("want empty report, got %v", sol.Links.Links)
	}
	approx(t, "zero-byte", sol.Dilations[0], 1)
	approx(t, "intra-node", sol.Dilations[1], 1)
}

func TestSolveDeterministicUnderPermutation(t *testing.T) {
	t.Parallel()
	// The recorder hands flows over in whatever order the ranks
	// finished; the solution must not depend on it.
	base := []Flow{
		{Key: key(0, 4, 1, 0), SrcNode: 0, DstNode: 4, Start: 0, Bytes: 3e5},
		{Key: key(1, 5, 1, 0), SrcNode: 1, DstNode: 5, Start: 0, Bytes: 7e5},
		{Key: key(2, 6, 2, 0), SrcNode: 2, DstNode: 6, Start: vclock.Time(1e8), Bytes: 5e5},
		{Key: key(3, 7, 2, 1), SrcNode: 3, DstNode: 7, Start: vclock.Time(2e8), Bytes: 9e5},
		{Key: key(0, 4, 1, 1), SrcNode: 0, DstNode: 4, Start: vclock.Time(2e8), Bytes: 2e5},
	}
	cfg := Config{Topo: ring(8), Capacity: flat(1e6), InjectionCapacity: 8e5, SeriesLinks: 16}
	ref := Solve(cfg, base)
	perm := []int{4, 2, 0, 3, 1}
	permuted := make([]Flow, len(perm))
	for i, j := range perm {
		permuted[i] = base[j]
	}
	got := Solve(cfg, permuted)
	for i, j := range perm {
		approx(t, "dilation "+base[j].Key.string(), got.Dilations[i], ref.Dilations[j])
	}
	if !reflect.DeepEqual(ref.Links, got.Links) {
		t.Errorf("link reports differ under input permutation:\n%+v\nvs\n%+v", ref.Links, got.Links)
	}
}

// string renders a key for test output.
func (k FlowKey) string() string {
	return string(rune('0'+k.Src)) + "→" + string(rune('0'+k.Dst))
}

func TestDilatedFlowsConserveWork(t *testing.T) {
	t.Parallel()
	// Many flows over one bottleneck: total transfer time must equal
	// total bytes over capacity (the fluid model conserves work), and
	// every flow's dilation must be ≥ 1.
	var flows []Flow
	total := 0.0
	for i := 0; i < 20; i++ {
		b := float64(1e5 * (i + 1))
		total += b
		flows = append(flows, Flow{
			Key: key(i, 0, 3, 0), SrcNode: 0, DstNode: 1,
			Start: vclock.Time(int64(i) * 1e7), Bytes: units.Bytes(b),
		})
	}
	sol := Solve(Config{Topo: ring(2), Capacity: flat(1e6)}, flows)
	ls := sol.Links.Links[0]
	if got := float64(ls.Bytes); math.Abs(got-total) > 1 {
		t.Errorf("link bytes = %v, want %v", got, total)
	}
	// The link is saturated from the first arrival to the last finish:
	// busy == span == total/capacity + the staggered lead-in slack.
	if ls.Busy.Seconds() < total/1e6-1e-9 {
		t.Errorf("busy %v shorter than serialization bound %v", ls.Busy.Seconds(), total/1e6)
	}
	for i, d := range sol.Dilations {
		if d < 1 {
			t.Errorf("dilation %v < 1 for %+v", d, flows[i].Key)
		}
	}
}
