// Package congestion is the contention-aware pricing layer under the
// simmpi runtime. The contention-free netmodel prices every message on
// an infinitely-provisioned fabric; this package instead routes every
// recorded inter-node flow onto concrete topology links (topo.Route),
// plays the whole flow schedule through a fluid bandwidth-sharing
// simulation, and reports how much each flow was slowed down by the
// traffic it shared links with.
//
// Bandwidth on each directed link is divided by iterative max-min fair
// sharing (progressive filling / waterfilling): at every instant the
// solver raises all active flows' rates together until some link
// saturates, freezes the flows crossing it at their fair share, removes
// that capacity, and repeats. The fluid schedule is re-solved at every
// flow arrival and departure, so a flow's effective bandwidth varies
// over its lifetime exactly as the set of competitors changes.
//
// All flows between one ordered pair of nodes share one route, so they
// form a route class that freezes as a whole, in the same round and at
// the same share. The waterfill therefore runs over the active classes
// and their flow counts, indexed by link, so a round visits only the
// classes on that round's bottleneck links. Every result stays bit for
// bit what a flow-by-flow waterfill computes:
//   - when a class of k flows freezes at share s, each of its links
//     loses s k times in sequence, clamped at zero each time, never k×s
//     at once;
//   - remaining bytes fall by the class's rate×dt, computed once per
//     class, flow by flow; flows of a class that arrived together with
//     the same size keep one shared value, which is the value each would
//     reach on its own;
//   - each link's rate sum adds its flows' rates one at a time in
//     arrival order, so its byte total rounds as it would flow by flow;
//   - the next completion is the least, over classes, of the class's
//     least remaining bytes over its rate (division by a positive rate
//     is monotone).
//
// The result per flow is a dilation factor D ≥ 1 — the ratio of its
// fluid completion time to the time it would take alone at its
// bottleneck-link bandwidth — returned positionally, one per input flow.
// The runtime multiplies the serialization term of the LogGP price by D
// on a replayed run (see simmpi). One fluid pass yields the dilations
// and every link's totals; only a request for utilization series
// (Config.SeriesLinks) replays the schedule a second time to bucket
// them. The solver is deterministic: flows are processed in (start
// time, flow key) order, links are interned in first-use order, and no
// map iteration ever reaches an output.
package congestion

import (
	"cmp"
	"math"

	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// FlowKey identifies one message flow: the (src, dst, tag) route and
// the sender's per-rank send index. Keys only order flows that start
// together; a flow's place in the input, not its key, is how its
// dilation is returned.
type FlowKey struct {
	Src, Dst, Tag, Seq int
}

// Flow is one recorded inter-node message.
type Flow struct {
	Key FlowKey
	// SrcNode and DstNode place the flow on the topology.
	SrcNode, DstNode int
	// Start is the sender's virtual time at injection.
	Start vclock.Time
	// Bytes is the wire size; zero-byte flows carry no bandwidth and
	// are ignored by the solver.
	Bytes units.Bytes
}

// Config parameterizes a solve.
type Config struct {
	// Topo supplies minimal routes between node indices.
	Topo topo.Topology
	// Capacity prices one directed link's bandwidth. Links priced ≤ 0
	// are treated as unconstrained and drop out of the contention model.
	// A nil Capacity disables contention entirely (empty solution).
	Capacity func(topo.Link) units.ByteRate
	// InjectionCapacity, when > 0, adds a host injection and ejection
	// link per node to routes that do not already include them (torus
	// routes are switch-level only), priced at this rate.
	InjectionCapacity units.ByteRate
	// Buckets is the utilization-series resolution (default 64).
	Buckets int
	// SeriesLinks bounds how many of the busiest links carry a
	// utilization series. Zero builds none, which saves replaying the
	// fluid schedule to bucket it.
	SeriesLinks int
}

// Solution is the outcome of a solve: per-flow dilations and the
// per-link accounting behind them.
type Solution struct {
	// Dilations holds one slowdown factor ≥ 1 per input flow, in input
	// order. Zero-byte, intra-node and unconstrained flows dilate by
	// exactly 1, so they price identically to the contention-free path.
	Dilations []float64
	// Links is the per-link contention report (never nil).
	Links *LinkReport
	// Events counts the fluid schedule's events: the instants at which
	// flows arrive or finish and the max-min rates are re-solved.
	Events int
}

// model is the prepared fluid-simulation input: filtered flows in
// deterministic order, each tagged with its route class. A class holds
// every flow between one ordered pair of nodes, so its flows share one
// interned, capacitated route.
type model struct {
	in       []int32 // input index of each modelled flow, in (start, key) order
	start    vclock.Time
	startSec []float64
	bytes    []float64
	class    []int32   // route class of each flow
	routes   [][]int32 // link ids of each class's route
	links    []topo.Link
	cap      []float64 // bytes/sec per link id, all > 0
	minCap   float64
	totals   linkTotals
	events   int
}

// Solve routes the flows, plays them through the fluid max-min sharing
// simulation and returns dilations plus the link report.
func Solve(cfg Config, flows []Flow) *Solution {
	s := &Solution{Dilations: make([]float64, len(flows)), Links: &LinkReport{}}
	for i := range s.Dilations {
		s.Dilations[i] = 1
	}
	if cfg.Topo == nil || cfg.Capacity == nil {
		return s
	}
	order := make([]int32, 0, len(flows))
	for i, f := range flows {
		if f.Bytes > 0 && f.SrcNode != f.DstNode {
			order = append(order, int32(i))
		}
	}
	if len(order) == 0 {
		return s
	}
	mergeRuns(flows, order)

	m := buildModel(cfg, flows, order)
	finish := m.run(nil)

	// Dilation = fluid duration over the alone-at-bottleneck duration.
	bottleneck := make([]float64, len(m.routes))
	for c, route := range m.routes {
		bottleneck[c] = math.Inf(1)
		for _, l := range route {
			bottleneck[c] = min(bottleneck[c], m.cap[l])
		}
	}
	for i, in := range m.in {
		minCap := bottleneck[m.class[i]]
		if math.IsInf(minCap, 1) {
			continue // unconstrained flow: dilation 1
		}
		ideal := m.bytes[i] / minCap
		if ideal <= 0 {
			continue
		}
		if d := (finish[i] - m.startSec[i]) / ideal; d > 1 {
			s.Dilations[in] = d
		}
	}
	s.Events = m.events
	s.Links = m.report(cfg, finish)
	return s
}

// compareFlows orders flows by start time, then key.
func compareFlows(a, b *Flow) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key.Src, b.Key.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key.Dst, b.Key.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key.Tag, b.Key.Tag); c != 0 {
		return c
	}
	return cmp.Compare(a.Key.Seq, b.Key.Seq)
}

// mergeRuns sorts order, a list of indices into flows, into compareFlows
// order by a natural merge sort: it splits order into its maximal
// ascending runs and merges neighbouring runs pairwise until one is
// left. The recorder hands each rank's sends over in start order, so
// its runs are the ranks and a job of p ranks sorts in about log2(p)
// linear passes. Any input sorts; an ascending one costs one scan.
func mergeRuns(flows []Flow, order []int32) {
	less := func(a, b int32) bool { return compareFlows(&flows[a], &flows[b]) < 0 }
	bounds := []int{0}
	for i := 1; i < len(order); i++ {
		if less(order[i], order[i-1]) {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(order))
	if len(bounds) == 2 {
		return
	}
	src, dst := order, make([]int32, len(order))
	for len(bounds) > 2 {
		w := 1
		for k := 0; k+1 < len(bounds); k += 2 {
			lo, mid := bounds[k], bounds[k+1]
			hi := mid
			if k+2 < len(bounds) {
				hi = bounds[k+2]
			}
			a, b, o := lo, mid, lo
			for a < mid && b < hi {
				if less(src[b], src[a]) {
					dst[o] = src[b]
					b++
				} else {
					dst[o] = src[a]
					a++
				}
				o++
			}
			o += copy(dst[o:], src[a:mid])
			copy(dst[o:], src[b:hi])
			bounds[w] = hi
			w++
		}
		bounds = bounds[:w]
		src, dst = dst, src
	}
	copy(order, src)
}

// buildModel puts each flow that order lists into its route class, one
// per ordered node pair, and interns each class's capacitated route.
// Classes and links are numbered in first-use order over the sorted
// flows, so ids are deterministic.
func buildModel(cfg Config, flows []Flow, order []int32) *model {
	m := &model{
		in:       order,
		start:    flows[order[0]].Start,
		startSec: make([]float64, len(order)),
		bytes:    make([]float64, len(order)),
		class:    make([]int32, len(order)),
		minCap:   math.Inf(1),
	}
	ids := map[topo.Link]int32{}
	intern := func(l topo.Link) (int32, bool) {
		if id, ok := ids[l]; ok {
			return id, id >= 0
		}
		c := float64(cfg.Capacity(l))
		if l.Level == topo.LevelHostUp || l.Level == topo.LevelHostDown {
			if inj := float64(cfg.InjectionCapacity); inj > 0 {
				c = inj
			}
		}
		if c <= 0 {
			ids[l] = -1 // unconstrained: excluded from the model
			return -1, false
		}
		id := int32(len(m.links))
		ids[l] = id
		m.links = append(m.links, l)
		m.cap = append(m.cap, c)
		if c < m.minCap {
			m.minCap = c
		}
		return id, true
	}
	// A node pair's class is keyed by one integer, src*nodes + dst.
	nodes := 0
	for _, in := range order {
		nodes = max(nodes, flows[in].SrcNode+1, flows[in].DstNode+1)
	}
	classOf := map[int]int32{}
	var buf []topo.Link
	for i, in := range order {
		f := &flows[in]
		m.startSec[i] = f.Start.Seconds()
		m.bytes[i] = float64(f.Bytes)
		pair := f.SrcNode*nodes + f.DstNode
		c, ok := classOf[pair]
		if !ok {
			c = int32(len(m.routes))
			classOf[pair] = c
			var route []int32
			buf = topo.RouteAppend(cfg.Topo, buf[:0], f.SrcNode, f.DstNode)
			hosts := len(buf) > 0 && buf[0].Level == topo.LevelHostUp
			if !hosts && cfg.InjectionCapacity > 0 {
				// Switch-level routes (tori) still funnel through the
				// source and destination nodes' network interfaces.
				if id, ok := intern(topo.Link{Level: topo.LevelHostUp, From: int32(f.SrcNode), To: -1}); ok {
					route = append(route, id)
				}
			}
			for _, l := range buf {
				if id, ok := intern(l); ok {
					route = append(route, id)
				}
			}
			if !hosts && cfg.InjectionCapacity > 0 {
				if id, ok := intern(topo.Link{Level: topo.LevelHostDown, From: -1, To: int32(f.DstNode)}); ok {
					route = append(route, id)
				}
			}
			m.routes = append(m.routes, route)
		}
		m.class[i] = c
	}
	return m
}

// segFunc observes one fluid integration step on one link: bytes moved
// across the link during [t0, t0+dt).
type segFunc func(link int32, t0, dt, bytes float64)

// linkTotals is the per-link accounting a run accumulates.
type linkTotals struct {
	busy  []float64
	bytes []float64
	flows []int64
	peak  []int32
}

// run plays the fluid max-min schedule and returns every flow's finish
// time (seconds). The accounting of the most recent run is kept on
// m.totals and m.events; seg, when non-nil, additionally observes every
// per-link integration step (used to build bucketed utilization series).
//
// The waterfill works on route classes, not flows: every flow of a class
// crosses the same links, so all of them freeze in the same round at the
// same share. Remaining bytes are advanced in one pass per event over the
// active flows in arrival order, a segment of them at a time.
func (m *model) run(seg segFunc) []float64 {
	n := len(m.in)
	nl := len(m.links)
	nc := len(m.routes)
	m.totals = linkTotals{
		busy:  make([]float64, nl),
		bytes: make([]float64, nl),
		flows: make([]int64, nl),
		peak:  make([]int32, nl),
	}
	m.events = 0
	finish := make([]float64, n)
	// The active flows in arrival order, cut into segments.
	segs := make([]segment, 0, 64)

	// Per class: active flow count, flows retired this event, fair-share
	// rate, bytes moved per flow this event, and the least remaining bytes
	// of its active flows.
	count := make([]int32, nc)
	gone := make([]int32, nc)
	rate := make([]float64, nc)
	step := make([]float64, nc)
	minRem := make([]float64, nc)
	frozen := make([]bool, nc)
	classes := make([]int32, 0, nc) // classes with active flows
	adjLen := 0
	for _, route := range m.routes {
		adjLen += len(route)
	}

	cnt := make([]int32, nl)     // active flows per link (incremental)
	ccnt := make([]int32, nl)    // active classes per link (incremental)
	cntWork := make([]int32, nl) // waterfill working copy of cnt
	capLeft := make([]float64, nl)
	fair := make([]float64, nl) // capLeft over cntWork, this round
	rateSum := make([]float64, nl)
	stamp := make([]int, nl) // touched-set membership, by generation
	gen := 0
	touched := make([]int32, 0, 256)
	// The link→class adjacency of one event: the active classes crossing
	// link l are adj[adjEnd[l]-ccnt[l] : adjEnd[l]].
	adjEnd := make([]int32, nl)
	adj := make([]int32, adjLen)
	live := make([]int32, 0, 256) // touched links that may still carry unfrozen flows
	bottlenecks := make([]int32, 0, 16)
	// One freeze round's capacity takers: taken[l] flows froze across
	// link l, for each l in hit.
	taken := make([]int32, nl)
	hit := make([]int32, 0, 256)

	const epsBytes = 1e-3
	i := 0
	t := m.startSec[0]
	for i < n || len(segs) > 0 {
		for i < n && m.startSec[i] <= t {
			c, b := m.class[i], m.bytes[i]
			j := i + 1
			for j < n && m.startSec[j] <= t && m.class[j] == c && m.bytes[j] == b {
				j++
			}
			k := int32(j - i)
			segs = append(segs, segment{rem: b, first: int32(i), n: k, class: c})
			if count[c] == 0 {
				classes = append(classes, c)
				minRem[c] = b
				for _, l := range m.routes[c] {
					ccnt[l]++
				}
			} else if b < minRem[c] {
				minRem[c] = b
			}
			count[c] += k
			for _, l := range m.routes[c] {
				cnt[l] += k
				m.totals.flows[l] += int64(k)
				if cnt[l] > m.totals.peak[l] {
					m.totals.peak[l] = cnt[l]
				}
			}
			i = j
		}
		if len(segs) == 0 {
			t = m.startSec[i]
			continue
		}
		m.events++

		// Waterfill: progressively freeze classes at the fair share of
		// their first-saturating link. One pass over the active classes
		// resets the touched links and lays out the adjacency.
		gen++
		touched = touched[:0]
		var next int32
		unfrozen := 0
		for _, c := range classes {
			if len(m.routes[c]) == 0 {
				// Unconstrained class: transfers at infinite fluid rate
				// (its flows retire this event with zero elapsed time).
				rate[c], frozen[c] = math.Inf(1), true
				continue
			}
			frozen[c] = false
			unfrozen++
			for _, l := range m.routes[c] {
				if stamp[l] != gen {
					stamp[l] = gen
					capLeft[l] = m.cap[l]
					cntWork[l] = cnt[l]
					rateSum[l] = 0
					adjEnd[l] = next
					next += ccnt[l]
					touched = append(touched, l)
				}
				adj[adjEnd[l]] = c
				adjEnd[l]++
			}
		}
		live = append(live[:0], touched...)
		for unfrozen > 0 {
			share := math.Inf(1)
			w := 0
			for _, l := range live {
				if cntWork[l] == 0 {
					continue // all its flows have frozen
				}
				live[w] = l
				w++
				fair[l] = capLeft[l] / float64(cntWork[l])
				if fair[l] < share {
					share = fair[l]
				}
			}
			live = live[:w]
			if share <= 0 {
				// Float residue from near-tied bottlenecks; keep the
				// schedule moving at a negligible rate.
				share = m.minCap * 1e-9
			}
			// Every link at the fair share saturates this round; all
			// their unfrozen classes freeze at it.
			bottlenecks = bottlenecks[:0]
			for _, l := range live {
				if fair[l] <= share {
					bottlenecks = append(bottlenecks, l)
				}
			}
			hit = hit[:0]
			for _, b := range bottlenecks {
				for _, c := range adj[adjEnd[b]-ccnt[b] : adjEnd[b]] {
					if frozen[c] {
						continue
					}
					rate[c], frozen[c] = share, true
					unfrozen--
					k := count[c]
					for _, l := range m.routes[c] {
						if taken[l] == 0 {
							hit = append(hit, l)
						}
						taken[l] += k
						cntWork[l] -= k
					}
				}
			}
			// Each flow that froze takes the share off every link it
			// crosses, one flow at a time, clamping at zero. Every
			// subtraction in a round is the same share, so the order
			// flows freeze in does not matter. A link left with no
			// unfrozen flow never reads its capacity again this event,
			// so it skips them.
			for _, l := range hit {
				k := taken[l]
				taken[l] = 0
				if cntWork[l] == 0 {
					continue
				}
				left := capLeft[l]
				for ; k > 0 && left > 0; k-- {
					left -= share
					if left < 0 {
						left = 0
					}
				}
				capLeft[l] = left
			}
		}

		// Advance to the next arrival or the first completion. Division
		// by a positive rate is monotone, so each class's least remaining
		// flow is its first to finish.
		dtFin := math.Inf(1)
		for _, c := range classes {
			if d := minRem[c] / rate[c]; d < dtFin {
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
		t0 := t
		if arrival {
			t = m.startSec[i]
		} else {
			t += dt
		}

		// One pass over the segments in arrival order moves their bytes
		// and retires the finished ones. It also sums each link's rates in
		// arrival order, one flow at a time, so a link's byte total rounds
		// as it would flow by flow.
		for _, c := range classes {
			step[c] = rate[c] * dt
			if len(m.routes[c]) == 0 {
				step[c] = math.Inf(1) // unconstrained: completes within this event
			}
			minRem[c] = math.Inf(1)
		}
		w := 0
		for _, sg := range segs {
			c := sg.class
			r := rate[c]
			for _, l := range m.routes[c] {
				sum := rateSum[l]
				for k := sg.n; k > 0; k-- {
					sum += r
				}
				rateSum[l] = sum
			}
			sg.rem -= step[c]
			if sg.rem <= epsBytes {
				for f := sg.first; f < sg.first+sg.n; f++ {
					finish[f] = t
				}
				gone[c] += sg.n
				continue
			}
			if sg.rem < minRem[c] {
				minRem[c] = sg.rem
			}
			segs[w] = sg
			w++
		}
		segs = segs[:w]
		for _, l := range touched {
			m.totals.busy[l] += dt
			moved := rateSum[l] * dt
			m.totals.bytes[l] += moved
			if seg != nil {
				seg(l, t0, dt, moved)
			}
		}
		w = 0
		for _, c := range classes {
			if k := gone[c]; k > 0 {
				gone[c] = 0
				count[c] -= k
				for _, l := range m.routes[c] {
					cnt[l] -= k
					if count[c] == 0 {
						ccnt[l]--
					}
				}
			}
			if count[c] > 0 {
				classes[w] = c
				w++
			}
		}
		classes = classes[:w]
	}
	return finish
}

// segment is a run of n active flows, first to first+n-1, of one class
// that arrived in the same event with the same size. Its flows see the
// same rate in every event, so each one's remaining bytes are rem, the
// same float64 the flow would reach on its own, and they finish together.
type segment struct {
	rem      float64
	first, n int32
	class    int32
}
