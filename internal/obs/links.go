package obs

import (
	"fmt"
	"io"

	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// LinkLine is the contention accounting of one interconnect link, as
// the job's link report gives it.
type LinkLine struct {
	// Name is the link's rendered identity, e.g. "dim0 3→4" or
	// "inj 5→gw2".
	Name string `json:"name"`
	// Bytes is the traffic the link carried; Busy the virtual time it
	// had at least one active flow.
	Bytes units.Bytes    `json:"bytes"`
	Busy  units.Duration `json:"busy_ns"`
	// Flows and PeakFlows count total and peak-concurrent flows.
	Flows     int64 `json:"flows"`
	PeakFlows int   `json:"peak_flows"`
	// Util is the mean utilization while busy, in [0, 1].
	Util float64 `json:"util"`
	// Series is the bucketed utilization over the contention window
	// (only the busiest links carry one).
	Series []float64 `json:"series,omitempty"`
}

// LinkHeatmap is the per-link contention view of one congestion-enabled
// job, busiest link first (the link report's order is preserved).
type LinkHeatmap struct {
	Links []LinkLine `json:"links"`
}

// BuildLinkHeatmap builds the heatmap from the job's link report. It
// returns nil when the job has no contended links (contention-free
// runs). A link's series is its utilization buckets up to the last busy
// one; it is absent when the report has no bucket width or the link no
// busy bucket.
func BuildLinkHeatmap(job *simmpi.Report) *LinkHeatmap {
	if job.Links == nil || len(job.Links.Links) == 0 {
		return nil
	}
	hm := &LinkHeatmap{Links: make([]LinkLine, len(job.Links.Links))}
	for i, ls := range job.Links.Links {
		l := LinkLine{
			Name: ls.Name, Bytes: ls.Bytes, Busy: ls.Busy,
			Flows: ls.Flows, PeakFlows: ls.PeakFlows, Util: ls.Util,
		}
		if job.Links.BucketWidth > 0 {
			for b, u := range ls.Series {
				if u > 0 {
					l.Series = ls.Series[:b+1]
				}
			}
		}
		hm.Links[i] = l
	}
	return hm
}

// MaxPeakFlows reports the largest peak-concurrency on any link.
func (hm *LinkHeatmap) MaxPeakFlows() int {
	worst := 0
	for _, l := range hm.Links {
		if l.PeakFlows > worst {
			worst = l.PeakFlows
		}
	}
	return worst
}

// sparkRunes grade utilization for the text heatmap.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders a utilization series as unicode block bars.
func sparkline(series []float64) string {
	if len(series) == 0 {
		return ""
	}
	out := make([]rune, len(series))
	for i, v := range series {
		if v <= 0 {
			out[i] = '·'
			continue
		}
		g := int(v * float64(len(sparkRunes)))
		if g >= len(sparkRunes) {
			g = len(sparkRunes) - 1
		}
		out[i] = sparkRunes[g]
	}
	return string(out)
}

// Render writes the human-readable heatmap: one line per link, busiest
// first, with a utilization sparkline for the links that carry a series.
func (hm *LinkHeatmap) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "link heatmap (%d contended links, peak concurrency %d):\n",
		len(hm.Links), hm.MaxPeakFlows()); err != nil {
		return err
	}
	for _, l := range hm.Links {
		if _, err := fmt.Fprintf(w, "  %-22s busy %-12v util %3.0f%%  flows %-6d peak %-4d %-10v %s\n",
			l.Name, l.Busy, 100*l.Util, l.Flows, l.PeakFlows, l.Bytes,
			sparkline(l.Series)); err != nil {
			return err
		}
	}
	return nil
}
