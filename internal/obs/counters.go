package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// CounterTotal is one virtual PMU counter summed across ranks.
type CounterTotal struct {
	Name  string       `json:"name"`
	Unit  string       `json:"unit"`
	Kind  metrics.Kind `json:"kind"`
	Value float64      `json:"value"`
}

// PhaseCounters attributes counter deltas to one region phase: every
// rank-recorded event is charged to the innermost region path open on
// its rank when it completed ("(top)" outside all regions).
type PhaseCounters struct {
	// Label is the region path, e.g. "cg-iter/mg-level-0".
	Label string `json:"label"`
	// Time sums the phase's busy-side event durations across ranks:
	// compute (flop + memory-stall + call overhead), injected noise,
	// and send-injection overhead.
	Time units.Duration `json:"time_ns"`
	// Wait sums receive-side blocked time.
	Wait units.Duration `json:"wait_ns"`
	// Flops and MemBytes total the metered compute work.
	Flops    units.Flops `json:"flops"`
	MemBytes units.Bytes `json:"mem_bytes"`
	// Msgs and SentBytes total the phase's point-to-point sends.
	Msgs      int64       `json:"msgs"`
	SentBytes units.Bytes `json:"sent_bytes"`
	// Events counts attributed events.
	Events int `json:"events"`
}

// DerivedRates are the job-level throughputs the paper's tables speak
// in, computed from counter totals over the makespan. All rates are 0
// (never Inf/NaN) for zero-duration jobs.
type DerivedRates struct {
	// GFlops is the achieved aggregate flop rate.
	GFlops float64 `json:"gflops"`
	// DRAMGBps is the achieved aggregate main-memory bandwidth.
	DRAMGBps float64 `json:"dram_gbps"`
	// NetGBps is the injected point-to-point wire bandwidth.
	NetGBps float64 `json:"net_gbps"`
	// FlopUtil and MemUtil are achieved-vs-peak fractions against the
	// supplied job-wide peaks (0 when peaks are unknown).
	FlopUtil float64 `json:"flop_util"`
	MemUtil  float64 `json:"mem_util"`
	// BytesPerFlop is the job's aggregate memory intensity.
	BytesPerFlop float64 `json:"bytes_per_flop"`
}

// CounterReport aggregates a counted job's PMU stream: totals, derived
// rates, and per-phase attribution.
type CounterReport struct {
	Label    string         `json:"label"`
	Ranks    int            `json:"ranks"`
	Nodes    int            `json:"nodes"`
	Makespan units.Duration `json:"makespan_ns"`
	// Totals lists every nonzero counter in registry order.
	Totals []CounterTotal `json:"totals"`
	// Derived holds the rates computed from the totals.
	Derived DerivedRates `json:"derived"`
	// Phases attributes counter deltas per region path, largest Time
	// first.
	Phases []PhaseCounters `json:"phases,omitempty"`
}

// BuildCounterReport aggregates one job's PMU accounting: the totals
// are the nonzero rank sums of its counters in registry order, and the
// phases a fold over its timeline. It returns nil when the job was run
// without the virtual PMU.
func BuildCounterReport(job *simmpi.Report, peaks Peaks) *CounterReport {
	if job.Counters == nil {
		return nil
	}
	defs := metrics.Counters()
	totals := job.Counters.Totals()
	cr := &CounterReport{
		Label:    job.Label,
		Ranks:    len(job.Ranks),
		Nodes:    NumNodes(job),
		Makespan: job.Makespan,
		Phases:   buildPhaseCounters(job.Events),
	}
	for id, v := range totals {
		if v == 0 {
			continue
		}
		d := defs[id]
		cr.Totals = append(cr.Totals, CounterTotal{Name: d.Name, Unit: d.Unit, Kind: d.Kind, Value: v})
	}

	var flops float64
	for c := range defs {
		if strings.HasPrefix(defs[c].Name, "flops.") {
			flops += totals[c]
		}
	}
	dram := totals[metrics.MemDRAM]
	sent := totals[metrics.SentBytes]
	cr.Derived = DerivedRates{
		GFlops:       safeRate(flops, cr.Makespan) / 1e9,
		DRAMGBps:     safeRate(dram, cr.Makespan) / 1e9,
		NetGBps:      safeRate(sent, cr.Makespan) / 1e9,
		FlopUtil:     safeDiv(safeRate(flops, cr.Makespan), float64(peaks.FlopRate)*float64(cr.Ranks)),
		MemUtil:      safeDiv(safeRate(dram, cr.Makespan), float64(peaks.Bandwidth)*float64(cr.Ranks)),
		BytesPerFlop: safeDiv(dram, flops),
	}
	return cr
}

// buildPhaseCounters walks each rank's region stack over the merged
// timeline (each rank's program order is preserved in it) and charges
// every event to the innermost open region path of its rank.
func buildPhaseCounters(events simmpi.Timeline) []PhaseCounters {
	byPhase := map[string]*PhaseCounters{}
	regions := map[int][]string{}
	get := func(rank int) *PhaseCounters {
		label := "(top)"
		if s := regions[rank]; len(s) > 0 {
			label = strings.Join(s, "/")
		}
		pc := byPhase[label]
		if pc == nil {
			pc = &PhaseCounters{Label: label}
			byPhase[label] = pc
		}
		return pc
	}
	for _, e := range events {
		switch e.Kind {
		case simmpi.EvRegionBegin:
			regions[e.Rank] = append(regions[e.Rank], e.Name)
		case simmpi.EvRegionEnd:
			if s := regions[e.Rank]; len(s) > 0 {
				regions[e.Rank] = s[:len(s)-1]
			}
		case simmpi.EvCompute:
			pc := get(e.Rank)
			pc.Time += e.Duration
			pc.Flops += e.Flops
			pc.MemBytes += e.Bytes
			pc.Events++
		case simmpi.EvNoise:
			pc := get(e.Rank)
			pc.Time += e.Duration
			pc.Events++
		case simmpi.EvSend:
			pc := get(e.Rank)
			pc.Time += e.Duration
			pc.Msgs++
			pc.SentBytes += e.Bytes
			pc.Events++
		case simmpi.EvRecv:
			pc := get(e.Rank)
			pc.Wait += e.Duration
			pc.Events++
		}
	}
	phases := make([]PhaseCounters, 0, len(byPhase))
	for _, pc := range byPhase {
		phases = append(phases, *pc)
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].Time != phases[j].Time {
			return phases[i].Time > phases[j].Time
		}
		return phases[i].Label < phases[j].Label
	})
	return phases
}

// A64FXPeaks derives per-rank roofline peaks from the A64FX node model
// and the job's rank placement. Experiments may run other systems too;
// the A64FX — the paper's subject — is the fixed yardstick.
func A64FXPeaks(job *simmpi.Report) Peaks {
	sys := arch.MustGet(arch.A64FX)
	rpn := 1
	if n := NumNodes(job); n > 0 {
		if r := (len(job.Ranks) + n - 1) / n; r > 0 {
			rpn = r
		}
	}
	return Peaks{
		FlopRate:  sys.Node.PeakFlops / units.FlopRate(rpn),
		Bandwidth: sys.Node.PeakBandwidth() / units.ByteRate(rpn),
	}
}

// AppendCounterEntries flattens one job's counter report into snapshot
// entries under the given key prefix: the makespan, every nonzero
// counter total under "ctr/", the derived rates under "rate/", and
// each region phase's attributed time and work under "phase/". The
// phase entries give the regression sentinel per-phase resolution and
// are what the roofline-vs-ECM model-delta table compares (ModelDelta).
func AppendCounterEntries(snap *metrics.Snapshot, prefix string, cr *CounterReport) {
	snap.Add(prefix+"/makespan.ns", float64(cr.Makespan), metrics.Time, "ns")
	for _, t := range cr.Totals {
		snap.Add(prefix+"/ctr/"+t.Name, t.Value, t.Kind, t.Unit)
	}
	snap.Add(prefix+"/rate/gflops", cr.Derived.GFlops, metrics.Rate, "gflop/s")
	snap.Add(prefix+"/rate/dram.gbps", cr.Derived.DRAMGBps, metrics.Rate, "gb/s")
	snap.Add(prefix+"/rate/net.gbps", cr.Derived.NetGBps, metrics.Rate, "gb/s")
	snap.Add(prefix+"/rate/flop.util", cr.Derived.FlopUtil, metrics.Rate, "fraction")
	snap.Add(prefix+"/rate/mem.util", cr.Derived.MemUtil, metrics.Rate, "fraction")
	for _, p := range cr.Phases {
		pp := prefix + "/phase/" + p.Label
		snap.Add(pp+"/time.ns", float64(p.Time), metrics.Time, "ns")
		snap.Add(pp+"/wait.ns", float64(p.Wait), metrics.Time, "ns")
		snap.Add(pp+"/flops", float64(p.Flops), metrics.Work, "flops")
		snap.Add(pp+"/mem.bytes", float64(p.MemBytes), metrics.Work, "bytes")
	}
}

// CounterPoint is one counter's value at one point of a job's
// aggregate series (metrics.JobCounters.AggregateSeries): the sum over
// ranks of the cumulative counter at that virtual time.
type CounterPoint struct {
	At    units.Duration
	ID    metrics.ID
	Value float64
}

// CounterPoints lists the points of the job's aggregate counter series
// at which a counter changed since the previous point, in time-major
// then counter-ID order. Every counter and series export reads them, so
// all show the same sparse stream. Nil counters yield none.
func CounterPoints(jc *metrics.JobCounters) []CounterPoint {
	if jc == nil {
		return nil
	}
	_, samples := jc.AggregateSeries()
	var pts []CounterPoint
	prev := make([]float64, metrics.NumCounters())
	for _, s := range samples {
		for id, v := range s.Values {
			if v != prev[id] {
				prev[id] = v
				pts = append(pts, CounterPoint{At: s.At, ID: metrics.ID(id), Value: v})
			}
		}
	}
	return pts
}

// CounterSeries is what the CSV export keeps of one job: its label and
// its changed counter points.
type CounterSeries struct {
	Label   string
	Changes []CounterPoint
}

// WriteCounterCSV exports the jobs' aggregate counter series in long
// form: one row per (job, sample time, changed counter), cumulative
// values. The stream is sparse — a counter appears at a sample exactly
// when its value changed — so consumers should carry values forward.
// The job column is the job's index in jobs.
func WriteCounterCSV(w io.Writer, jobs []CounterSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job", "label", "at_ns", "counter", "value"}); err != nil {
		return err
	}
	for ji, job := range jobs {
		for _, p := range job.Changes {
			if err := cw.Write([]string{
				strconv.Itoa(ji),
				job.Label,
				strconv.FormatInt(int64(p.At), 10),
				p.ID.String(),
				strconv.FormatFloat(p.Value, 'g', -1, 64),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Render writes the human-readable counter report.
func (cr *CounterReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %d ranks on %d nodes, makespan %v ===\n",
		cr.Label, cr.Ranks, cr.Nodes, cr.Makespan); err != nil {
		return err
	}
	d := cr.Derived
	if _, err := fmt.Fprintf(w, "derived: %.2f GFLOP/s, %.2f GB/s DRAM (%.3f B/flop), %.2f GB/s net, util flops %.1f%% mem %.1f%%\n",
		d.GFlops, d.DRAMGBps, d.BytesPerFlop, d.NetGBps, 100*d.FlopUtil, 100*d.MemUtil); err != nil {
		return err
	}
	for _, t := range cr.Totals {
		if _, err := fmt.Fprintf(w, "  %-24s %18.6g %s\n", t.Name, t.Value, t.Unit); err != nil {
			return err
		}
	}
	if len(cr.Phases) > 0 {
		if _, err := fmt.Fprintf(w, "  %-28s %12s %12s %14s %12s %8s\n",
			"phase", "time", "wait", "flops", "mem", "msgs"); err != nil {
			return err
		}
		top := cr.Phases
		if len(top) > 16 {
			top = top[:16]
		}
		for _, p := range top {
			if _, err := fmt.Fprintf(w, "  %-28s %12v %12v %14v %12v %8d\n",
				p.Label, p.Time, p.Wait, p.Flops, p.MemBytes, p.Msgs); err != nil {
				return err
			}
		}
	}
	return nil
}
