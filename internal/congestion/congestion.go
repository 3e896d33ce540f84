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
// over its lifetime exactly as the set of competitors changes. Each
// event indexes its active flows by link, so a round visits only the
// flows on that round's bottleneck links.
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
	"slices"

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
// deterministic order with interned, capacitated routes.
type model struct {
	in       []int32 // input index of each modelled flow, in (start, key) order
	start    vclock.Time
	startSec []float64
	bytes    []float64
	routes   [][]int32
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
	slices.SortFunc(order, func(a, b int32) int { return compareFlows(&flows[a], &flows[b]) })

	m := buildModel(cfg, flows, order)
	finish := m.run(nil)

	// Dilation = fluid duration over the alone-at-bottleneck duration.
	for i, in := range m.in {
		minCap := math.Inf(1)
		for _, l := range m.routes[i] {
			if m.cap[l] < minCap {
				minCap = m.cap[l]
			}
		}
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

// buildModel interns the capacitated route of every flow that order
// lists. Links are numbered in first-use order over the sorted flows, so
// ids are deterministic.
func buildModel(cfg Config, flows []Flow, order []int32) *model {
	m := &model{
		in:       order,
		start:    flows[order[0]].Start,
		startSec: make([]float64, len(order)),
		bytes:    make([]float64, len(order)),
		routes:   make([][]int32, len(order)),
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
	type pairKey struct{ a, b int }
	pairRoutes := map[pairKey][]int32{}
	var buf []topo.Link
	for i, in := range order {
		f := &flows[in]
		m.startSec[i] = f.Start.Seconds()
		m.bytes[i] = float64(f.Bytes)
		pk := pairKey{f.SrcNode, f.DstNode}
		route, ok := pairRoutes[pk]
		if !ok {
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
			pairRoutes[pk] = route
		}
		m.routes[i] = route
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
func (m *model) run(seg segFunc) []float64 {
	n := len(m.in)
	nl := len(m.links)
	m.totals = linkTotals{
		busy:  make([]float64, nl),
		bytes: make([]float64, nl),
		flows: make([]int64, nl),
		peak:  make([]int32, nl),
	}
	m.events = 0
	finish := make([]float64, n)
	rem := append([]float64(nil), m.bytes...)
	rates := make([]float64, n)
	frozen := make([]bool, n)
	active := make([]int32, 0, 64)

	cnt := make([]int32, nl)     // active flows per link (incremental)
	cntWork := make([]int32, nl) // waterfill working copy
	capLeft := make([]float64, nl)
	rateSum := make([]float64, nl)
	stamp := make([]int, nl) // touched-set membership, by generation
	gen := 0
	touched := make([]int32, 0, 256)
	// The link→flow adjacency of one event: the active flows crossing
	// link l are adj[adjEnd[l]-cnt[l] : adjEnd[l]]. routeLinks is its
	// size, the route length summed over active flows.
	adjEnd := make([]int32, nl)
	adj := make([]int32, 0, 256)
	routeLinks := 0
	live := make([]int32, 0, 256) // touched links that may still carry unfrozen flows
	bottlenecks := make([]int32, 0, 16)

	const epsBytes = 1e-3
	i := 0
	t := m.startSec[0]
	for i < n || len(active) > 0 {
		for i < n && m.startSec[i] <= t {
			active = append(active, int32(i))
			routeLinks += len(m.routes[i])
			for _, l := range m.routes[i] {
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
		m.events++

		// Waterfill: progressively freeze flows at the fair share of
		// their first-saturating link. One pass over the active routes
		// resets the touched links and lays out the adjacency.
		gen++
		touched = touched[:0]
		adj = slices.Grow(adj[:0], routeLinks)[:routeLinks]
		var next int32
		unfrozen := len(active)
		for _, f := range active {
			frozen[f] = false
			if len(m.routes[f]) == 0 {
				// Unconstrained flow: transfers at infinite fluid rate
				// (it retires this event with zero elapsed time).
				rates[f], frozen[f] = math.Inf(1), true
				unfrozen--
				continue
			}
			for _, l := range m.routes[f] {
				if stamp[l] != gen {
					stamp[l] = gen
					capLeft[l] = m.cap[l]
					cntWork[l] = cnt[l]
					rateSum[l] = 0
					adjEnd[l] = next
					next += cnt[l]
					touched = append(touched, l)
				}
				adj[adjEnd[l]] = f
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
				if s := capLeft[l] / float64(cntWork[l]); s < share {
					share = s
				}
			}
			live = live[:w]
			if share <= 0 {
				// Float residue from near-tied bottlenecks; keep the
				// schedule moving at a negligible rate.
				share = m.minCap * 1e-9
			}
			// Every link at the fair share saturates this round; all
			// their unfrozen flows freeze at it. Freezing subtracts the
			// same share everywhere, so the order flows freeze in does
			// not change any rate or remaining capacity.
			bottlenecks = bottlenecks[:0]
			for _, l := range live {
				if capLeft[l]/float64(cntWork[l]) <= share {
					bottlenecks = append(bottlenecks, l)
				}
			}
			for _, b := range bottlenecks {
				for _, f := range adj[adjEnd[b]-cnt[b] : adjEnd[b]] {
					if frozen[f] {
						continue
					}
					rates[f], frozen[f] = share, true
					unfrozen--
					for _, l := range m.routes[f] {
						capLeft[l] -= share
						if capLeft[l] < 0 {
							capLeft[l] = 0
						}
						cntWork[l]--
					}
				}
			}
		}

		// Advance to the next arrival or the first completion.
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
				rem[f] = 0 // unconstrained: completes within this event
				continue
			}
			rem[f] -= rates[f] * dt
			for _, l := range m.routes[f] {
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
				routeLinks -= len(m.routes[f])
				for _, l := range m.routes[f] {
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
