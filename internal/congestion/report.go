package congestion

import (
	"cmp"
	"slices"
	"strings"

	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// LinkStats is the contention accounting of one directed link.
type LinkStats struct {
	// Link is the topology edge; Name is its rendered form (stable,
	// human-readable, and what trace outputs show).
	Link topo.Link `json:"-"`
	Name string    `json:"name"`
	// Capacity is the link's modelled bandwidth.
	Capacity units.ByteRate `json:"capacity_bps"`
	// Bytes is the total traffic the link carried.
	Bytes units.Bytes `json:"bytes"`
	// Busy is the virtual time the link had at least one active flow.
	Busy units.Duration `json:"busy_ns"`
	// Flows counts flows routed over the link; PeakFlows is the largest
	// number sharing it at one instant.
	Flows     int64 `json:"flows"`
	PeakFlows int   `json:"peak_flows"`
	// Util is the link's mean utilization while busy: bytes carried
	// over capacity×busy, in [0, 1].
	Util float64 `json:"util"`
	// Series is the bucketed utilization over the report window (only
	// the busiest Config.SeriesLinks links carry one).
	Series []float64 `json:"series,omitempty"`
}

// LinkReport is the per-link view of one solved flow schedule, busiest
// link first.
type LinkReport struct {
	// Start and Span bound the window: first flow injection to last
	// flow completion, in virtual time.
	Start vclock.Time    `json:"start_ns"`
	Span  units.Duration `json:"span_ns"`
	// BucketWidth is the Series resolution (Span / buckets).
	BucketWidth units.Duration `json:"bucket_ns"`
	// Links holds every contended link, sorted by busy time (desc),
	// then bytes (desc), then name.
	Links []LinkStats `json:"links"`
}

// report assembles the LinkReport from the totals of the completed run.
// When cfg.SeriesLinks asks for utilization series, it re-runs the fluid
// schedule once more to bucket the busiest links over the now-known
// window.
func (m *model) report(cfg Config, finish []float64) *LinkReport {
	rep := &LinkReport{Start: m.start}
	t0 := m.startSec[0]
	t1 := t0
	for _, f := range finish {
		if f > t1 {
			t1 = f
		}
	}
	rep.Span = units.DurationFromSeconds(t1 - t0)

	names := make([]string, len(m.links))
	order := make([]int, len(m.links))
	for i := range order {
		order[i] = i
		names[i] = m.links[i].String()
	}
	slices.SortFunc(order, func(la, lb int) int {
		if c := cmp.Compare(m.totals.busy[lb], m.totals.busy[la]); c != 0 {
			return c
		}
		if c := cmp.Compare(m.totals.bytes[lb], m.totals.bytes[la]); c != 0 {
			return c
		}
		return strings.Compare(names[la], names[lb])
	})

	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = 64
	}
	bw := (t1 - t0) / float64(buckets)
	var series map[int32][]float64
	if bw > 0 && cfg.SeriesLinks > 0 {
		series = map[int32][]float64{}
		for i := 0; i < len(order) && i < cfg.SeriesLinks; i++ {
			series[int32(order[i])] = make([]float64, buckets)
		}
		m.run(func(l int32, segT0, dt, bytes float64) {
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
			Name:      names[id],
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

// clamp01 bounds a utilization ratio to [0, 1] (float residue from
// bucket-boundary splitting can overshoot by an ulp).
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
