// Package metrics is the simulator's virtual performance-monitoring
// unit (PMU): a fixed registry of named hardware-style counters and a
// per-rank accumulator that samples them in virtual time.
//
// Real investigations of the A64FX read memory-boundedness, vector
// quality and network share off hardware counters (LIKWID/ECM-style
// groups); the simulator has the same information available exactly —
// every metered WorkProfile and every message carries its operation
// counts — so the virtual PMU exposes it under stable counter names:
// flops by kernel class, effective L1/L2/DRAM traffic, model-attributed
// stall time (compute / memory / per-call overhead / network / noise),
// point-to-point traffic, and collective time by algorithm.
//
// Everything here is driven by the ranks' virtual clocks and program
// order, never by wall time or goroutine scheduling, so counter values
// and sampled series are bit-deterministic for a given job — the same
// property the trace and golden-artifact layers already guarantee.
package metrics

import (
	"fmt"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// Kind classifies a counter for regression-diff direction rules.
type Kind int

// Counter kinds.
const (
	// Work counters are operation/traffic counts (flops, bytes,
	// messages). They derive from the benchmarks' real arithmetic, so a
	// change is a behavioural change, regardless of direction.
	Work Kind = iota
	// Time counters accumulate virtual time; more is worse.
	Time
	// Rate counters are derived throughputs (snapshot-only; the PMU
	// itself never accumulates rates); less is worse.
	Rate
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Work:
		return "work"
	case Time:
		return "time"
	case Rate:
		return "rate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"work"`:
		*k = Work
	case `"time"`:
		*k = Time
	case `"rate"`:
		*k = Rate
	default:
		return fmt.Errorf("metrics: unknown counter kind %s", b)
	}
	return nil
}

// ID indexes a counter in the registry (and in every value vector).
type ID int

// Def describes one registered counter.
type Def struct {
	// Name is the stable dotted counter name, e.g. "flops.spmv" or
	// "stall.mem.ns".
	Name string
	// Unit is the counter's unit ("flops", "bytes", "ns", "msgs").
	Unit string
	// Kind drives the regression-diff direction rule.
	Kind Kind
}

// Collective identifies one collective algorithm for time attribution.
type Collective int

// Collectives instrumented by the runtime.
const (
	CollBarrier Collective = iota
	CollAllreduce
	CollAlltoall
	numCollectives
)

// String names the collective.
func (c Collective) String() string {
	switch c {
	case CollBarrier:
		return "barrier"
	case CollAllreduce:
		return "allreduce"
	case CollAlltoall:
		return "alltoall"
	default:
		return fmt.Sprintf("collective(%d)", int(c))
	}
}

// NumCollectives reports how many collective algorithms are
// instrumented (Collective values range over [0, NumCollectives())).
func NumCollectives() Collective { return numCollectives }

// The registry. Built once at init in a fixed order, so IDs, names and
// value-vector layouts are identical in every process.
var (
	defs   []Def
	byName = map[string]ID{}

	// flopsByClass counts double-precision operations per kernel class;
	// collByOp the virtual time ranks spend inside each collective.
	flopsByClass []ID
	collByOp     []ID

	// Effective memory traffic by hierarchy level. DRAM bytes are the
	// metered WorkProfile bytes; L1/L2 are the cost model's per-class
	// amplification estimates (perfmodel.CacheAmplification).
	MemL1   ID
	MemL2   ID
	MemDRAM ID

	// TimeFlops is the roofline flop term of compute phases; StallMem
	// the excess of the memory term over it (zero for compute-bound
	// phases); StallCall the per-invocation overhead term. The three sum
	// to the phase time exactly.
	TimeFlops ID
	StallMem  ID
	StallCall ID
	// StallNet is receive-side blocked time, StallNoise injected OS
	// noise, NetInject the sender-CPU injection overhead, TimeOther
	// fixed Elapse() advances (setup, modelled I/O).
	StallNet   ID
	StallNoise ID
	NetInject  ID
	TimeOther  ID

	// Point-to-point traffic (collective internals included).
	SentMsgs  ID
	SentBytes ID
	RecvMsgs  ID
	RecvBytes ID

	// ECM-mode phase attribution: the raw per-level transfer phases of
	// the ECM model (register↔L1, L1↔L2, memory) and the overlap credit
	// its composition rule subtracts from their sum. All zero under the
	// roofline model, so roofline snapshots are unchanged by their
	// existence. Time = TimeFlops + ECML1 + ECML2 + ECMMem + StallCall
	// − ECMHidden for every ECM compute phase.
	ECML1     ID
	ECML2     ID
	ECMMem    ID
	ECMHidden ID
)

func register(name, unit string, kind Kind) ID {
	if _, dup := byName[name]; dup {
		panic("metrics: duplicate counter " + name)
	}
	id := ID(len(defs))
	defs = append(defs, Def{Name: name, Unit: unit, Kind: kind})
	byName[name] = id
	return id
}

func init() {
	classes := perfmodel.KernelClasses()
	flopsByClass = make([]ID, len(classes))
	for _, c := range classes {
		flopsByClass[c] = register("flops."+c.String(), "flops", Work)
	}
	MemDRAM = register("mem.dram.bytes", "bytes", Work)
	MemL2 = register("mem.l2.bytes", "bytes", Work)
	MemL1 = register("mem.l1.bytes", "bytes", Work)
	TimeFlops = register("time.flops.ns", "ns", Time)
	StallMem = register("stall.mem.ns", "ns", Time)
	StallCall = register("stall.call.ns", "ns", Time)
	StallNet = register("stall.net.ns", "ns", Time)
	StallNoise = register("stall.noise.ns", "ns", Time)
	NetInject = register("net.inject.ns", "ns", Time)
	TimeOther = register("time.other.ns", "ns", Time)
	SentMsgs = register("net.sent.msgs", "msgs", Work)
	SentBytes = register("net.sent.bytes", "bytes", Work)
	RecvMsgs = register("net.recv.msgs", "msgs", Work)
	RecvBytes = register("net.recv.bytes", "bytes", Work)
	collByOp = make([]ID, numCollectives)
	for c := Collective(0); c < numCollectives; c++ {
		collByOp[c] = register("coll."+c.String()+".ns", "ns", Time)
	}
	ECML1 = register("ecm.l1.ns", "ns", Time)
	ECML2 = register("ecm.l2.ns", "ns", Time)
	ECMMem = register("ecm.mem.ns", "ns", Time)
	ECMHidden = register("ecm.hidden.ns", "ns", Time)
}

// NumCounters reports the registry size (the length of value vectors).
func NumCounters() int { return len(defs) }

// Counters returns a copy of the full registry in ID order.
func Counters() []Def {
	out := make([]Def, len(defs))
	copy(out, defs)
	return out
}

// String returns the counter's name.
func (id ID) String() string { return defs[id].Name }

// FlopsFor returns the flop counter of a kernel class.
func FlopsFor(c perfmodel.KernelClass) ID { return flopsByClass[c] }

// CollTime returns the time counter of a collective algorithm.
func CollTime(c Collective) ID { return collByOp[c] }

// Config enables counter collection for a job.
type Config struct {
	// Period is the virtual-time sampling period of the per-rank series;
	// ≤ 0 means the 100µs default. Samples land on multiples of the
	// period of each rank's own virtual clock.
	Period units.Duration
}

// DefaultPeriod is the sampling period of a zero Config.
const DefaultPeriod = 100 * units.Microsecond

// MaxSamples bounds each rank's series: when a series would exceed it,
// the period doubles and existing samples are decimated onto the
// coarser grid (deterministically — the kept samples are exactly the
// even multiples). The bound keeps memory finite regardless of job
// length.
const MaxSamples = 512

// Sanitized resolves defaults: a zero Config means the default period.
func (c Config) Sanitized() Config {
	if c.Period <= 0 {
		c.Period = DefaultPeriod
	}
	return c
}

// Sample is one point of a sampled counter series: the cumulative
// counter vector when the owning clock first reached (or passed) At.
type Sample struct {
	At     units.Duration `json:"at_ns"`
	Values []float64      `json:"values"`
}

// RankPMU accumulates one rank's counters. The owning rank drives it
// from its body goroutine; it is not safe for concurrent use — exactly
// like the rank itself.
type RankPMU struct {
	vals    []float64
	period  units.Duration
	next    units.Duration
	samples []Sample
}

// NewRankPMU creates a PMU for one rank.
func NewRankPMU(cfg Config) *RankPMU {
	cfg = cfg.Sanitized()
	return &RankPMU{
		vals:   make([]float64, len(defs)),
		period: cfg.Period,
		next:   cfg.Period,
	}
}

// Add accumulates a counter delta.
func (p *RankPMU) Add(id ID, v float64) { p.vals[id] += v }

// AddTime accumulates a virtual-time delta in nanoseconds.
func (p *RankPMU) AddTime(id ID, d units.Duration) { p.vals[id] += float64(d) }

// Observe samples the counters at every period boundary the owning
// clock has crossed since the previous call. Hooks call it after
// applying an operation's deltas with the operation's completion time,
// so a sample at k·Period holds the cumulative counters at the moment
// the rank's clock first reached or passed that boundary.
func (p *RankPMU) Observe(now units.Duration) {
	for p.next <= now {
		vals := make([]float64, len(p.vals))
		copy(vals, p.vals)
		p.samples = append(p.samples, Sample{At: p.next, Values: vals})
		p.next += p.period
		if len(p.samples) > MaxSamples {
			p.decimate()
		}
	}
}

// decimate doubles the period and keeps only samples on the coarser
// grid. Purely a function of the sample times — deterministic.
func (p *RankPMU) decimate() {
	p.period *= 2
	keep := p.samples[:0]
	for _, s := range p.samples {
		if s.At%p.period == 0 {
			keep = append(keep, s)
		}
	}
	// Drop the tail references so decimated samples can be collected.
	for i := len(keep); i < len(p.samples); i++ {
		p.samples[i] = Sample{}
	}
	p.samples = keep
	if rem := p.next % p.period; rem != 0 {
		p.next += p.period - rem
	}
}

// Counters freezes the PMU into the rank's final accounting.
func (p *RankPMU) Counters(rank int) RankCounters {
	return RankCounters{
		Rank:    rank,
		Period:  p.period,
		Values:  append([]float64(nil), p.vals...),
		Samples: p.samples,
	}
}

// RankCounters is one rank's final counter accounting: cumulative
// values (indexed by ID) and the sampled series.
type RankCounters struct {
	Rank int `json:"rank"`
	// Period is the rank's final sampling period (decimation may have
	// coarsened it from the configured one).
	Period units.Duration `json:"period_ns"`
	// Values holds the final cumulative counters, indexed by ID.
	Values []float64 `json:"values"`
	// Samples is the virtual-time series, ascending in At.
	Samples []Sample `json:"samples,omitempty"`
}

// JobCounters aggregates every rank's counters for one job.
type JobCounters struct {
	Ranks []RankCounters `json:"ranks"`
}

// Totals sums the final counter vectors across ranks.
func (jc *JobCounters) Totals() []float64 {
	out := make([]float64, len(defs))
	for _, rc := range jc.Ranks {
		for i, v := range rc.Values {
			out[i] += v
		}
	}
	return out
}

// Total sums one counter across ranks.
func (jc *JobCounters) Total(id ID) float64 {
	var v float64
	for _, rc := range jc.Ranks {
		v += rc.Values[id]
	}
	return v
}

// AggregateSeries merges the per-rank series into one job-wide series on
// the coarsest period any rank settled on (every finer period divides
// it, since decimation only ever doubles). Each point sums, over ranks,
// the rank's cumulative counters at that time — the final values once a
// rank's series is exhausted. The result depends only on the per-rank
// series, so it is deterministic.
func (jc *JobCounters) AggregateSeries() (units.Duration, []Sample) {
	var period, last units.Duration
	for _, rc := range jc.Ranks {
		if rc.Period > period {
			period = rc.Period
		}
		if n := len(rc.Samples); n > 0 && rc.Samples[n-1].At > last {
			last = rc.Samples[n-1].At
		}
	}
	if period <= 0 || last <= 0 {
		return period, nil
	}
	n := int(last / period)
	out := make([]Sample, 0, n)
	idx := make([]int, len(jc.Ranks)) // per-rank cursor into Samples
	for k := 1; k <= n; k++ {
		t := units.Duration(k) * period
		vals := make([]float64, len(defs))
		for ri := range jc.Ranks {
			rc := &jc.Ranks[ri]
			for idx[ri] < len(rc.Samples) && rc.Samples[idx[ri]].At <= t {
				idx[ri]++
			}
			var src []float64
			switch {
			case idx[ri] == 0:
				// Before the rank's first sample (or a rank whose job was
				// shorter than one period): contributes zero.
				continue
			case idx[ri] == len(rc.Samples) && t > rc.Samples[idx[ri]-1].At:
				// Past the rank's series: its counters are frozen at the
				// final cumulative values.
				src = rc.Values
			default:
				src = rc.Samples[idx[ri]-1].Values
			}
			for i, v := range src {
				vals[i] += v
			}
		}
		out = append(out, Sample{At: t, Values: vals})
	}
	return period, out
}
