package congestion

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// refSolve is the reference solver the production Solve is held to bit
// for bit: the straightforward waterfill that rescans every active
// flow's route in each freeze round, and a report that replays the
// fluid schedule to bucket the utilization series. It shares only
// route interning (buildModel) with Solve, and reads each flow's route
// through its class.
func refSolve(cfg Config, flows []Flow) ([]float64, *LinkReport) {
	dil := make([]float64, len(flows))
	for i := range dil {
		dil[i] = 1
	}
	if cfg.Topo == nil || cfg.Capacity == nil {
		return dil, &LinkReport{}
	}
	var order []int32
	for i, f := range flows {
		if f.Bytes > 0 && f.SrcNode != f.DstNode {
			order = append(order, int32(i))
		}
	}
	if len(order) == 0 {
		return dil, &LinkReport{}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := flows[order[i]], flows[order[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Key.Src != b.Key.Src {
			return a.Key.Src < b.Key.Src
		}
		if a.Key.Dst != b.Key.Dst {
			return a.Key.Dst < b.Key.Dst
		}
		if a.Key.Tag != b.Key.Tag {
			return a.Key.Tag < b.Key.Tag
		}
		return a.Key.Seq < b.Key.Seq
	})
	m := buildModel(cfg, flows, order)
	finish := refRun(m, nil)
	for i, in := range m.in {
		minCap := math.Inf(1)
		for _, l := range m.routes[m.class[i]] {
			if m.cap[l] < minCap {
				minCap = m.cap[l]
			}
		}
		if math.IsInf(minCap, 1) {
			continue
		}
		ideal := m.bytes[i] / minCap
		if ideal <= 0 {
			continue
		}
		if d := (finish[i] - m.startSec[i]) / ideal; d > 1 {
			dil[in] = d
		}
	}
	return dil, refReport(m, cfg, flows, finish)
}

// refRun plays the fluid max-min schedule, scanning every active flow's
// route in each freeze round, and returns every flow's finish time. It
// leaves the link accounting on m.totals; seg, when non-nil, observes
// every per-link integration step.
func refRun(m *model, seg segFunc) []float64 {
	n := len(m.in)
	nl := len(m.links)
	m.totals = linkTotals{
		busy:  make([]float64, nl),
		bytes: make([]float64, nl),
		flows: make([]int64, nl),
		peak:  make([]int32, nl),
	}
	finish := make([]float64, n)
	rem := append([]float64(nil), m.bytes...)
	rates := make([]float64, n)
	frozen := make([]bool, n)
	active := make([]int, 0, 64)

	cnt := make([]int32, nl)
	cntWork := make([]int32, nl)
	capLeft := make([]float64, nl)
	rateSum := make([]float64, nl)
	stamp := make([]int, nl)
	bstamp := make([]int, nl)
	gen, bgen := 0, 0
	touched := make([]int32, 0, 256)

	const epsBytes = 1e-3
	i := 0
	t := m.startSec[0]
	for i < n || len(active) > 0 {
		for i < n && m.startSec[i] <= t {
			active = append(active, i)
			for _, l := range m.routes[m.class[i]] {
				cnt[l]++
				m.totals.flows[l]++
				if cnt[l] > m.totals.peak[l] {
					m.totals.peak[l] = cnt[l]
				}
			}
			i++
		}
		if len(active) == 0 {
			t = m.startSec[i]
			continue
		}

		gen++
		touched = touched[:0]
		unfrozen := len(active)
		for _, f := range active {
			frozen[f] = false
			if len(m.routes[m.class[f]]) == 0 {
				rates[f], frozen[f] = math.Inf(1), true
				unfrozen--
				continue
			}
			for _, l := range m.routes[m.class[f]] {
				if stamp[l] != gen {
					stamp[l] = gen
					capLeft[l] = m.cap[l]
					cntWork[l] = cnt[l]
					rateSum[l] = 0
					touched = append(touched, l)
				}
			}
		}
		for unfrozen > 0 {
			share := math.Inf(1)
			for _, l := range touched {
				if cntWork[l] > 0 {
					if s := capLeft[l] / float64(cntWork[l]); s < share {
						share = s
					}
				}
			}
			if share <= 0 {
				share = m.minCap * 1e-9
			}
			bgen++
			for _, l := range touched {
				if cntWork[l] > 0 && capLeft[l]/float64(cntWork[l]) <= share {
					bstamp[l] = bgen
				}
			}
			for _, f := range active {
				if frozen[f] {
					continue
				}
				hit := false
				for _, l := range m.routes[m.class[f]] {
					if bstamp[l] == bgen {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				rates[f], frozen[f] = share, true
				unfrozen--
				for _, l := range m.routes[m.class[f]] {
					capLeft[l] -= share
					if capLeft[l] < 0 {
						capLeft[l] = 0
					}
					cntWork[l]--
				}
			}
		}

		dtFin := math.Inf(1)
		for _, f := range active {
			if d := rem[f] / rates[f]; d < dtFin {
				dtFin = d
			}
		}
		arrival := false
		dt := dtFin
		if i < n {
			if dtArr := m.startSec[i] - t; dtArr < dtFin {
				dt, arrival = dtArr, true
			}
		}
		if dt < 0 {
			dt = 0
		}
		for _, f := range active {
			if math.IsInf(rates[f], 1) {
				rem[f] = 0
				continue
			}
			rem[f] -= rates[f] * dt
			for _, l := range m.routes[m.class[f]] {
				rateSum[l] += rates[f]
			}
		}
		for _, l := range touched {
			m.totals.busy[l] += dt
			moved := rateSum[l] * dt
			m.totals.bytes[l] += moved
			if seg != nil {
				seg(l, t, dt, moved)
			}
		}
		if arrival {
			t = m.startSec[i]
		} else {
			t += dt
		}
		w := 0
		for _, f := range active {
			if rem[f] <= epsBytes {
				finish[f] = t
				for _, l := range m.routes[m.class[f]] {
					cnt[l]--
				}
			} else {
				active[w] = f
				w++
			}
		}
		active = active[:w]
	}
	return finish
}

// refReport assembles the LinkReport from refRun's totals, replaying the
// schedule once more to bucket the busiest links' utilization.
func refReport(m *model, cfg Config, flows []Flow, finish []float64) *LinkReport {
	rep := &LinkReport{Start: flows[m.in[0]].Start}
	t0 := m.startSec[0]
	t1 := t0
	for _, f := range finish {
		if f > t1 {
			t1 = f
		}
	}
	rep.Span = units.DurationFromSeconds(t1 - t0)

	order := make([]int, len(m.links))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := order[a], order[b]
		if m.totals.busy[la] != m.totals.busy[lb] {
			return m.totals.busy[la] > m.totals.busy[lb]
		}
		if m.totals.bytes[la] != m.totals.bytes[lb] {
			return m.totals.bytes[la] > m.totals.bytes[lb]
		}
		return m.links[la].String() < m.links[lb].String()
	})

	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = 64
	}
	bw := (t1 - t0) / float64(buckets)
	series := map[int32][]float64{}
	if bw > 0 && cfg.SeriesLinks > 0 {
		for i := 0; i < len(order) && i < cfg.SeriesLinks; i++ {
			series[int32(order[i])] = make([]float64, buckets)
		}
		refRun(m, func(l int32, segT0, dt, bytes float64) {
			bs, ok := series[l]
			if !ok || dt <= 0 || bytes <= 0 {
				return
			}
			lo := int((segT0 - t0) / bw)
			hi := int((segT0 + dt - t0) / bw)
			for b := lo; b <= hi && b < buckets; b++ {
				if b < 0 {
					continue
				}
				s := t0 + float64(b)*bw
				e := s + bw
				if s < segT0 {
					s = segT0
				}
				if e > segT0+dt {
					e = segT0 + dt
				}
				if e > s {
					bs[b] += bytes * (e - s) / dt
				}
			}
		})
	}

	rep.BucketWidth = units.DurationFromSeconds(bw)
	rep.Links = make([]LinkStats, 0, len(order))
	for _, id := range order {
		ls := LinkStats{
			Link:      m.links[id],
			Name:      m.links[id].String(),
			Capacity:  units.ByteRate(m.cap[id]),
			Bytes:     units.Bytes(m.totals.bytes[id] + 0.5),
			Busy:      units.DurationFromSeconds(m.totals.busy[id]),
			Flows:     m.totals.flows[id],
			PeakFlows: int(m.totals.peak[id]),
		}
		if m.totals.busy[id] > 0 {
			ls.Util = clamp01(m.totals.bytes[id] / (m.cap[id] * m.totals.busy[id]))
		}
		if bs, ok := series[int32(id)]; ok {
			ls.Series = make([]float64, buckets)
			for b, v := range bs {
				ls.Series[b] = clamp01(v / (m.cap[id] * bw))
			}
		}
		rep.Links = append(rep.Links, ls)
	}
	return rep
}

// randomSolve draws a reproducible solve from seed on one of four
// topologies (kind mod 4: ring, TofuD, dragonfly, fat tree). Link
// capacities come from a few classes, one of them unconstrained (≤ 0),
// so some flows cross no priced link at all. Starts sit on a coarse grid
// plus occasional jitter, so many flows start together; about one flow
// in eight is zero-byte and one in eight stays on its node. Kinds 4–7
// (kind mod 8) are dense: see denseFlows.
func randomSolve(seed int64, kind uint8) (Config, []Flow) {
	rng := rand.New(rand.NewSource(seed))
	dense := kind%8 >= 4
	var tp topo.Topology
	nodes := 2 + rng.Intn(47)
	if dense {
		nodes = 2 + rng.Intn(7)
	}
	switch kind % 4 {
	case 0:
		if !dense {
			nodes = 2 + rng.Intn(15)
		}
		tp = ring(nodes)
	case 1:
		tp = topo.NewTofuD(nodes)
	case 2:
		tp = &topo.Dragonfly{NodesPerRouter: 2, RoutersPerGroup: 3}
	case 3:
		tp = &topo.FatTree{NodesPerLeaf: 4, Uplinks: 1 + rng.Intn(4)}
	}
	classes := []units.ByteRate{0, 1e6, 2e6, 5e6, 1e7}
	salt := rng.Uint32()
	capacity := func(l topo.Link) units.ByteRate {
		h := uint32(l.Level)*0x9E3779B1 ^ uint32(l.From)*0x85EBCA77 ^ uint32(l.To)*0xC2B2AE3D ^ salt
		h ^= h >> 15
		h *= 0x2C1B3C6D
		h ^= h >> 12
		return classes[h%uint32(len(classes))]
	}
	cfg := Config{Topo: tp, Capacity: capacity, Buckets: rng.Intn(24), SeriesLinks: rng.Intn(24)}
	if rng.Intn(2) == 0 {
		cfg.InjectionCapacity = classes[1+rng.Intn(len(classes)-1)]
	}
	if dense {
		return cfg, denseFlows(rng, nodes)
	}
	flows := make([]Flow, 1+rng.Intn(150))
	for i := range flows {
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		if rng.Intn(8) == 0 {
			dst = src
		}
		var bytes units.Bytes
		if rng.Intn(8) != 0 {
			bytes = units.Bytes(1 + rng.Intn(4e6))
		}
		start := vclock.Time(rng.Intn(6)) * vclock.Time(200*units.Millisecond)
		if rng.Intn(3) == 0 {
			start += vclock.Time(rng.Intn(int(units.Second)))
		}
		flows[i] = Flow{
			Key:     FlowKey{Src: rng.Intn(8), Dst: rng.Intn(8), Tag: rng.Intn(3), Seq: i},
			SrcNode: src, DstNode: dst, Start: start, Bytes: bytes,
		}
	}
	return cfg, flows
}

// denseFlows draws a few hundred flows among the ranks of 2–8 nodes and
// hands them over rank by rank in start order, numbered in program
// order, as the simmpi recorder does. Starts sit on a grid of three
// instants and most sizes come from three values, so each node pair's
// route class holds many flows, and many of them start and finish
// together.
func denseFlows(rng *rand.Rand, nodes int) []Flow {
	perNode := 1 + rng.Intn(8)
	p := nodes * perNode
	sizes := []units.Bytes{1e5, 4e5, 1e6}
	flows := make([]Flow, 200+rng.Intn(300))
	for i := range flows {
		src, dst := rng.Intn(p), rng.Intn(p)
		bytes := sizes[rng.Intn(len(sizes))]
		if rng.Intn(4) == 0 {
			bytes = units.Bytes(1 + rng.Intn(2e6))
		}
		flows[i] = Flow{
			Key:     FlowKey{Src: src, Dst: dst, Tag: rng.Intn(3)},
			SrcNode: src / perNode, DstNode: dst / perNode,
			Start: vclock.Time(rng.Intn(3)) * vclock.Time(400*units.Millisecond),
			Bytes: bytes,
		}
	}
	sort.SliceStable(flows, func(i, j int) bool {
		if flows[i].Key.Src != flows[j].Key.Src {
			return flows[i].Key.Src < flows[j].Key.Src
		}
		return flows[i].Start < flows[j].Start
	})
	for i := range flows {
		if i > 0 && flows[i-1].Key.Src == flows[i].Key.Src {
			flows[i].Key.Seq = flows[i-1].Key.Seq + 1
		}
	}
	return flows
}

// checkMatchesReference holds Solve to refSolve bit for bit: every
// dilation and the whole link report, utilization series included.
func checkMatchesReference(t *testing.T, cfg Config, flows []Flow) {
	t.Helper()
	got := Solve(cfg, flows)
	dil, links := refSolve(cfg, flows)
	for i := range dil {
		if got.Dilations[i] != dil[i] {
			t.Errorf("flow %d %+v: dilation %v, reference %v", i, flows[i], got.Dilations[i], dil[i])
		}
	}
	if !reflect.DeepEqual(got.Links, links) {
		t.Errorf("link report differs from the reference:\n%+v\nvs\n%+v", got.Links, links)
	}
}

func TestSolveMatchesReference(t *testing.T) {
	t.Parallel()
	for kind, name := range []string{"ring", "tofud", "dragonfly", "fattree",
		"ring-dense", "tofud-dense", "dragonfly-dense", "fattree-dense"} {
		for seed := int64(1); seed <= 25; seed++ {
			cfg, flows := randomSolve(seed, uint8(kind))
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				checkMatchesReference(t, cfg, flows)
			})
		}
	}
}

func FuzzSolveEquivalence(f *testing.F) {
	for kind := uint8(0); kind < 8; kind++ {
		f.Add(int64(kind)+1, kind)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		cfg, flows := randomSolve(seed, kind)
		checkMatchesReference(t, cfg, flows)
	})
}
