package obs

import (
	"sort"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// Peaks carries the per-rank machine peaks a roofline is judged
// against: the flop rate and memory bandwidth one rank's share of the
// node can reach. A zero Peaks still yields achieved rates and
// arithmetic intensities, just no utilization/bound classification.
type Peaks struct {
	FlopRate  units.FlopRate
	Bandwidth units.ByteRate
}

// RooflinePoint is one kernel class's position on the roofline:
// aggregate work, achieved rates, and — when peaks are known — its
// utilization of the limiting resource.
type RooflinePoint struct {
	Class perfmodel.KernelClass `json:"class"`
	// Time sums the class's busy time across all ranks.
	Time units.Duration `json:"time_ns"`
	// Flops and Bytes total the metered work of the class.
	Flops units.Flops `json:"flops"`
	Bytes units.Bytes `json:"bytes"`
	// FlopRate and Bandwidth are the achieved per-rank rates
	// (work divided by summed busy time).
	FlopRate  units.FlopRate `json:"flop_rate"`
	Bandwidth units.ByteRate `json:"bandwidth"`
	// Intensity is flops per byte of memory traffic.
	Intensity float64 `json:"intensity"`
	// Bound is "flops" or "memory" — which roofline ceiling the class
	// sits under — or "" when no peaks were supplied.
	Bound string `json:"bound,omitempty"`
	// Utilization is the achieved fraction of the limiting ceiling
	// (0 when no peaks were supplied).
	Utilization float64 `json:"utilization"`
}

// BuildRoofline aggregates the job's compute events per kernel class
// and positions each class against the supplied peaks. Classes are
// returned ordered by descending time (ties by class id).
func BuildRoofline(peaks Peaks, job *simmpi.Report) []RooflinePoint {
	byClass := map[perfmodel.KernelClass]*RooflinePoint{}
	for _, e := range job.Events {
		if e.Kind != simmpi.EvCompute {
			continue
		}
		p := byClass[e.Class]
		if p == nil {
			p = &RooflinePoint{Class: e.Class}
			byClass[e.Class] = p
		}
		p.Time += e.Duration
		p.Flops += e.Flops
		p.Bytes += e.Bytes
	}
	points := make([]RooflinePoint, 0, len(byClass))
	for _, p := range byClass {
		// Quick-mode runs can legitimately produce zero-duration phases
		// (rounding of tiny modelled times); every derived rate must
		// come out 0 then — never +Inf/NaN, which would also be invalid
		// JSON.
		p.FlopRate = units.FlopRate(safeRate(float64(p.Flops), p.Time))
		p.Bandwidth = units.ByteRate(safeRate(float64(p.Bytes), p.Time))
		p.Intensity = safeDiv(float64(p.Flops), float64(p.Bytes))
		if peaks.FlopRate > 0 && peaks.Bandwidth > 0 {
			fu := float64(p.FlopRate) / float64(peaks.FlopRate)
			bu := float64(p.Bandwidth) / float64(peaks.Bandwidth)
			if fu >= bu {
				p.Bound, p.Utilization = "flops", fu
			} else {
				p.Bound, p.Utilization = "memory", bu
			}
		}
		points = append(points, *p)
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].Time != points[j].Time {
			return points[i].Time > points[j].Time
		}
		return points[i].Class < points[j].Class
	})
	return points
}

// safeRate is amount/duration in units per second, 0 for zero-duration
// (units.Rate already guards; the named helper is the package-wide
// contract that derived rates never go Inf/NaN).
func safeRate(amount float64, d units.Duration) float64 {
	return units.Rate(amount, d)
}

// safeDiv is a/b with 0 for a non-positive denominator.
func safeDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
