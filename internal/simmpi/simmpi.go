// Package simmpi is a message-passing runtime for simulated parallel
// jobs: MPI rank bodies run as coroutines that queue their operations
// (queue.go), one single-threaded discrete-event loop plays each rank's
// queue in program order and resumes the rank once it has drained
// (event.go), and every operation is priced in virtual time by the
// perfmodel (compute) and netmodel (communication) packages when it is
// played. A body waits only in Now or Stats, or for room in its queue.
//
// A simulated message carries a wire size and an availability time,
// never data: sends, receives and collectives take byte counts, and no
// operation returns a value computed by other ranks.
//
// The design keeps the classic MPI shape — ranks, tags, point-to-point
// sends and receives, and collectives — so the benchmark codes read like
// their MPI originals. Virtual-time causality follows the conservative
// rule implemented in package vclock: a receive completes at
// max(receiver clock, message availability), where availability is the
// sender's clock at the send plus the fabric's transfer cost.
//
// World collectives run as one batched event once every rank's play has
// arrived (collective_batch.go). Each rank still performs the exact
// per-rank message sequence of a real algorithm (dissemination barrier,
// recursive-doubling allreduce, pairwise all-to-all), so
// their virtual-time behaviour — including load imbalance arriving at a
// collective — follows from per-message pricing rather than from a
// closed-form formula. Face-halo exchanges are one of them: a rank
// registers each halo pattern once as a persistent neighbourhood
// (neighbor.go), and NeighborExchange posts its halo sends and then its
// receives, exactly as a hand-rolled Send/Recv loop would, without the
// per-message routing, scheduling or matching. A collective that
// repeats an earlier instance's relative arrival clocks is replayed
// from the shift memo (memo.go) in untraced, uncounted, contention-free
// jobs: one pass over the ranks instead of its messages.
package simmpi

import (
	"fmt"

	"a64fxbench/internal/congestion"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/telemetry"
	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// JobConfig describes one simulated parallel job.
type JobConfig struct {
	// Procs is the total number of MPI ranks.
	Procs int
	// Nodes is the number of compute nodes the ranks occupy.
	Nodes int
	// ThreadsPerRank is the OpenMP-style thread count each rank drives;
	// it becomes PhaseOptions.Cores for compute phases.
	ThreadsPerRank int
	// FastMath enables the aggressive-compiler efficiency mode for all
	// compute phases of the job.
	FastMath bool
	// CostModel is the calibrated cost model every rank's compute
	// phases are priced with. Required.
	CostModel *perfmodel.CostModel
	// Fabric prices inter-node communication. Required if Nodes > 1;
	// a nil fabric with Nodes == 1 prices all messages as intra-node
	// at a default shared-memory cost. Ranks are placed in blocks:
	// rank r lives on node r/⌈Procs/Nodes⌉.
	Fabric *netmodel.Fabric
	// NoiseProb and NoiseDuration model OS/system noise: with the
	// given probability per compute phase (deterministically hashed
	// from rank and sequence number, so runs are reproducible), a rank
	// is delayed by NoiseDuration. In bulk-synchronous codes this is
	// what erodes parallel efficiency at scale — the effect behind the
	// paper's Table VII values.
	NoiseProb     float64
	NoiseDuration units.Duration
	// Label names the job in its report (Report.Label) and so in every
	// trace output; empty defaults to "job p=<Procs>".
	Label string
	// Instrumentation carries the job's trace sink, congestion pricing,
	// PMU, compute-pricing model and telemetry span.
	Instrumentation
}

// validate normalises and checks the configuration.
func (c *JobConfig) validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("simmpi: Procs = %d, need ≥ 1", c.Procs)
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.Nodes > c.Procs {
		return fmt.Errorf("simmpi: Nodes (%d) > Procs (%d)", c.Nodes, c.Procs)
	}
	if c.ThreadsPerRank < 1 {
		c.ThreadsPerRank = 1
	}
	if c.CostModel == nil {
		return fmt.Errorf("simmpi: CostModel is required")
	}
	if c.Fabric == nil {
		if c.Nodes > 1 {
			return fmt.Errorf("simmpi: Fabric required for %d nodes", c.Nodes)
		}
		c.Fabric = &netmodel.Fabric{
			Name:             "shared-memory",
			Topo:             singleNodeTopo{},
			SoftwareOverhead: units.Duration(600 * units.Nanosecond),
			HopLatency:       0,
			LinkBandwidth:    10 * units.GBPerSec,
		}
	}
	model, err := perfmodel.ParseModel(string(c.Model))
	if err != nil {
		return err
	}
	c.Model = model
	return nil
}

// singleNodeTopo is the trivial topology of one node.
type singleNodeTopo struct{}

func (singleNodeTopo) Hops(a, b int) int          { return 0 }
func (singleNodeTopo) Route(a, b int) []topo.Link { return nil }
func (singleNodeTopo) MaxNodes() int              { return 1 }

// message is the unit carried between ranks: its modelled wire size and
// the virtual time it becomes available. It holds no pointer, so the
// route queues and collective scratch that store messages cost the
// garbage collector nothing.
type message struct {
	bytes units.Bytes
	avail vclock.Time
}

// job is the shared state of a running simulated job.
type job struct {
	cfg     JobConfig
	congest *congestState // nil unless Congestion is on and Nodes > 1
	// opt is the job's compute-phase options, and rates its roofline
	// rates per kernel class under them: every roofline phase is priced
	// from this table, never by the cost model.
	opt   perfmodel.PhaseOptions
	rates [perfmodel.NumKernelClasses]perfmodel.Rates
	// net prices the job's messages contention-free.
	net pricer
}

// Stats accumulates one rank's activity.
type Stats struct {
	// Flops and MemBytes total the metered compute work.
	Flops    units.Flops
	MemBytes units.Bytes
	// MsgsSent and BytesSent total point-to-point traffic (collective
	// internals included).
	MsgsSent  int64
	BytesSent units.Bytes
	// ClassTime breaks busy time down by kernel class, indexed by
	// class; a class the rank never computed reads zero.
	ClassTime [perfmodel.NumKernelClasses]units.Duration
}

// Rank is one simulated MPI process. The body function owns it; it is not
// safe for concurrent use.
type Rank struct {
	id       int
	size     int
	node     int
	clock    vclock.Clock
	job      *job
	eng      *eventEngine
	stats    Stats
	noiseSeq uint64
	events   []Event
	regions  []regionFrame

	// pmu is the rank's virtual performance-counter unit (nil unless
	// JobConfig.Counters is set).
	pmu *metrics.RankPMU

	// q holds the operations the body queued and the loop has not
	// played yet (queue.go).
	q opQueue
	// nbs counts the neighbourhoods the rank has registered.
	nbs int

	// Congestion-replay state (see congested.go): flows is the recording
	// pass's log of this rank's inter-node sends, in program order;
	// replayed counts the sends pass two has priced from it.
	flows    []sentFlow
	replayed int
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the total rank count.
func (r *Rank) Size() int { return r.size }

// Node returns the node index this rank is placed on.
func (r *Rank) Node() int { return r.node }

// Now returns the rank's virtual time once every operation it issued
// before the call has been played.
func (r *Rank) Now() vclock.Time {
	r.sync()
	return r.clock.Now()
}

// Stats returns a copy of the rank's accumulated statistics, including
// every operation it issued before the call.
func (r *Rank) Stats() Stats {
	r.sync()
	return r.stats
}

// Compute executes a metered kernel phase: the rank's clock advances by
// the modelled phase time.
func (r *Rank) Compute(w perfmodel.WorkProfile) {
	r.push(rankOp{kind: opCompute, a: int(w.Class), b: int(w.Calls), n: int64(w.Bytes), f: w.Flops})
}

// compute plays a compute phase: it prices the phase, draws noise, and
// updates the clock, PMU, statistics and trace.
func (r *Rank) compute(w perfmodel.WorkProfile) {
	var d units.Duration
	ecm := r.job.cfg.Model == perfmodel.ModelECM
	switch {
	case r.pmu != nil && ecm:
		// ECM mode: the per-level transfer phases are first-class
		// counters. TimeFlops carries the in-core phase; the memory
		// wait is split across the ecm.* level counters instead of
		// stall.mem, and the overlap credit is subtracted so
		// TimeFlops + ecm.l1 + ecm.l2 + ecm.mem + stall.call −
		// ecm.hidden == phase time exactly.
		bd := r.job.cfg.CostModel.ECMBreakdown(w, r.job.opt)
		d = bd.Time
		r.pmu.Add(metrics.FlopsFor(w.Class), float64(w.Flops))
		r.pmu.Add(metrics.MemDRAM, float64(w.Bytes))
		r.pmu.Add(metrics.MemL2, float64(bd.L2Bytes))
		r.pmu.Add(metrics.MemL1, float64(bd.L1Bytes))
		r.pmu.AddTime(metrics.TimeFlops, bd.CoreTime)
		r.pmu.AddTime(metrics.ECML1, bd.L1Time)
		r.pmu.AddTime(metrics.ECML2, bd.L2Time)
		r.pmu.AddTime(metrics.ECMMem, bd.MemTime)
		r.pmu.AddTime(metrics.ECMHidden, bd.Hidden)
		r.pmu.AddTime(metrics.StallCall, bd.Overhead)
	case ecm:
		d = r.job.cfg.CostModel.ECMTime(w, r.job.opt)
	case r.pmu != nil:
		// Breakdown evaluates the same roofline terms as Time (bd.Time
		// is bit-identical), plus the counter-grade split.
		bd := r.job.rates[w.Class].Breakdown(w)
		d = bd.Time
		r.pmu.Add(metrics.FlopsFor(w.Class), float64(w.Flops))
		r.pmu.Add(metrics.MemDRAM, float64(w.Bytes))
		r.pmu.Add(metrics.MemL2, float64(bd.L2Bytes))
		r.pmu.Add(metrics.MemL1, float64(bd.L1Bytes))
		r.pmu.AddTime(metrics.TimeFlops, bd.FlopTime)
		r.pmu.AddTime(metrics.StallMem, bd.MemStall)
		r.pmu.AddTime(metrics.StallCall, bd.Overhead)
	default:
		d = r.job.rates[w.Class].Time(w)
	}
	start := r.clock.Now()
	r.clock.Advance(d)
	r.observe()
	if r.traced() {
		r.record(Event{
			Kind: EvCompute, Start: start, Duration: d, Class: w.Class,
			Peer: -1, Flops: w.Flops, Bytes: w.Bytes,
		})
	}
	if p := r.job.cfg.NoiseProb; p > 0 {
		r.noiseSeq++
		h := splitmix64(uint64(r.id)*0x9E3779B97F4A7C15 + r.noiseSeq)
		if float64(h>>11)/(1<<53) < p {
			if r.traced() {
				r.record(Event{Kind: EvNoise, Start: r.clock.Now(), Duration: r.job.cfg.NoiseDuration, Peer: -1})
			}
			r.clock.Advance(r.job.cfg.NoiseDuration)
			if r.pmu != nil {
				r.pmu.AddTime(metrics.StallNoise, r.job.cfg.NoiseDuration)
				r.observe()
			}
		}
	}
	r.stats.Flops += w.Flops
	r.stats.MemBytes += w.Bytes
	r.stats.ClassTime[w.Class] += d
}

// observe samples the PMU at the rank's current clock. No-op without a
// PMU.
func (r *Rank) observe() {
	if r.pmu != nil {
		r.pmu.Observe(units.Duration(r.clock.Now()))
	}
}

// splitmix64 is the SplitMix64 mixing function — a fast, deterministic
// hash used for reproducible noise injection.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Elapse advances the rank's clock by a fixed duration (setup phases,
// modelled I/O, etc.).
func (r *Rank) Elapse(d units.Duration) {
	r.push(rankOp{kind: opElapse, n: int64(d)})
}

// elapse plays an Elapse.
func (r *Rank) elapse(d units.Duration) {
	r.clock.Advance(d)
	if r.pmu != nil {
		r.pmu.AddTime(metrics.TimeOther, d)
		r.observe()
	}
}

// sendCore prices one outgoing message of the given wire size and
// performs every per-rank side effect of a send — clock, PMU,
// statistics, congestion flows, and the trace event — but leaves
// delivery to the caller. Point-to-point sends and the batched
// collective executor share it, so a collective costs exactly what the
// same message sequence sent one by one would.
func (r *Rank) sendCore(dst, tag int, bytes units.Bytes) message {
	if dst < 0 || dst >= r.size {
		panic(fmt.Sprintf("simmpi: send to invalid rank %d (size %d)", dst, r.size))
	}
	f := r.job.cfg.Fabric
	dstNode := r.eng.ranks[dst].node
	sendAt := r.clock.Now()
	var total units.Duration
	if cs := r.job.congest; cs != nil && dstNode != r.node && bytes > 0 {
		total = r.congestedPrice(cs, dst, tag, dstNode, bytes)
	} else {
		total = r.job.net.price(r.node, dstNode, bytes)
	}
	// The sender's CPU is occupied for the injection overhead; the rest
	// of the transfer overlaps with whatever the sender does next.
	r.clock.Advance(f.SoftwareOverhead / 2)
	if r.pmu != nil {
		r.pmu.AddTime(metrics.NetInject, f.SoftwareOverhead/2)
		r.pmu.Add(metrics.SentMsgs, 1)
		r.pmu.Add(metrics.SentBytes, float64(bytes))
		r.observe()
	}
	r.stats.MsgsSent++
	r.stats.BytesSent += bytes
	if r.traced() {
		r.record(Event{Kind: EvSend, Start: sendAt, Duration: f.SoftwareOverhead / 2, Peer: dst, Tag: tag, Bytes: bytes})
	}
	return message{bytes: bytes, avail: sendAt.Add(total)}
}

// recvCore performs every per-rank side effect of receiving m — the
// virtual-time jump to its availability, PMU, and the trace event. The
// caller has already matched the message.
func (r *Rank) recvCore(m message, src, tag int) {
	start := r.clock.Now()
	r.clock.AdvanceTo(m.avail)
	wait := units.Duration(vclock.Max(m.avail, start) - start)
	if r.pmu != nil {
		r.pmu.AddTime(metrics.StallNet, wait)
		r.pmu.Add(metrics.RecvMsgs, 1)
		r.pmu.Add(metrics.RecvBytes, float64(m.bytes))
		r.observe()
	}
	if r.traced() {
		r.record(Event{
			Kind: EvRecv, Start: start,
			Duration: wait,
			Peer:     src, Tag: tag, Bytes: m.bytes,
		})
	}
}

// Send transmits a message of the modelled wire size to rank dst with
// the given tag (callers know their datatype sizes). Sends are eager:
// Send never blocks.
func (r *Rank) Send(dst, tag int, bytes units.Bytes) {
	r.push(rankOp{kind: opSend, a: dst, b: tag, n: int64(bytes)})
}

// Recv receives the next message from src with the given tag: virtual
// time advances to its availability. The body does not wait for it.
func (r *Rank) Recv(src, tag int) {
	r.push(rankOp{kind: opRecv, a: src, b: tag})
}

// Internal tags for collectives live far above user tags.
const (
	tagBarrier = 1 << 20
	tagReduce  = 1 << 21
	tagA2A     = 1 << 24
)

// collBegin opens a collective for PMU time attribution and returns its
// start time; collEnd closes it and charges the elapsed time to c.
func (r *Rank) collBegin() vclock.Time { return r.clock.Now() }

func (r *Rank) collEnd(c metrics.Collective, start vclock.Time) {
	if r.pmu != nil {
		r.pmu.AddTime(metrics.CollTime(c), units.Duration(r.clock.Now()-start))
	}
}

// Barrier synchronises all ranks with a dissemination barrier. The body
// does not wait for it; Now after a Barrier reads the time the rank left
// it.
func (r *Rank) Barrier() {
	if r.size > 1 {
		r.push(rankOp{kind: opBarrier})
	}
}

// Allreduce is a reduction of an operand of the given wire size across
// all ranks: it sends the messages of recursive doubling with the
// standard pre/post folding for non-power-of-two sizes. The body does
// not wait for it.
func (r *Rank) Allreduce(bytes units.Bytes) {
	if r.size > 1 {
		r.push(rankOp{kind: opAllreduce, n: int64(bytes)})
	}
}

// Alltoall performs a pairwise-exchange all-to-all: this rank sends a
// message of the given wire size to every other rank and receives one
// from each. Ranks may pass different sizes. The body does not wait for
// it.
func (r *Rank) Alltoall(bytes units.Bytes) {
	if r.size > 1 {
		r.push(rankOp{kind: opAlltoall, n: int64(bytes)})
	}
}

// RankResult captures one rank's final accounting.
type RankResult struct {
	Rank   int
	Node   int
	Finish vclock.Time
	Busy   units.Duration
	Wait   units.Duration
	Stats  Stats
}

// Report summarises a completed job. It is also the one record a trace
// sink observes.
type Report struct {
	// Label names the job: JobConfig.Label, or "job p=<Procs>".
	Label string
	// Makespan is the virtual time at which the slowest rank finished —
	// the simulated job runtime.
	Makespan units.Duration
	// TotalFlops sums metered flops across ranks.
	TotalFlops units.Flops
	// TotalBytesSent sums point-to-point wire traffic.
	TotalBytesSent units.Bytes
	// TotalMsgs counts point-to-point messages.
	TotalMsgs int64
	// MeanBusy and MeanWait average the per-rank busy/wait split.
	MeanBusy units.Duration
	MeanWait units.Duration
	// Ranks holds per-rank results, indexed by rank.
	Ranks []RankResult
	// Links is the per-link contention accounting of a congestion-
	// enabled multi-node run; nil otherwise. It comes from the one fluid
	// solve of the run; only a traced run's links also carry utilization
	// series (the busiest links, for the heatmap).
	Links *congestion.LinkReport
	// Counters is the virtual PMU's accounting — final per-rank counter
	// vectors and sampled virtual-time series — present exactly when
	// JobConfig.Counters was set.
	Counters *metrics.JobCounters
	// Events is a traced job's timeline: every rank's events merged in
	// (Start, Rank) order, each rank's program order kept. Only the
	// report handed to the trace sink carries it; Run returns the report
	// without it, so no job's events outlive the sink's fold.
	Events Timeline
}

// GFLOPs reports the aggregate achieved rate: total flops over makespan.
func (rep Report) GFLOPs() float64 {
	return units.Rate(float64(rep.TotalFlops), rep.Makespan) / 1e9
}

// Seconds reports the makespan in seconds.
func (rep Report) Seconds() float64 { return rep.Makespan.Seconds() }

// Run executes body on every rank of the configured job and returns the
// aggregated report. The first non-nil error from any rank — returned by
// its body, or a panic in its body or while one of its operations was
// played — aborts the report (every waiting body is still unwound, so
// nothing leaks).
func Run(cfg JobConfig, body func(*Rank) error) (Report, error) {
	label := cfg.Label
	if label == "" {
		label = fmt.Sprintf("job p=%d", cfg.Procs)
	}
	jobSpan := cfg.Telemetry.Child("job:" + label)
	defer jobSpan.End()
	setup := jobSpan.Child("setup")
	if err := cfg.validate(); err != nil {
		setup.Fail(err)
		setup.End()
		jobSpan.Fail(err)
		return Report{}, err
	}
	setup.End()
	jobSpan.SetAttr("ranks", cfg.Procs)
	jobSpan.SetAttr("nodes", cfg.Nodes)
	var cs *congestState
	if cfg.Congestion && cfg.Nodes > 1 {
		var err error
		if cs, err = recordAndSolve(cfg, body, jobSpan); err != nil {
			jobSpan.Fail(err)
			return Report{}, err
		}
	}
	runSpan := jobSpan.Child("run-pass")
	ranks, err := runRanks(cfg, body, cs)
	if err == nil && cs != nil {
		err = cs.replayErr(ranks)
	}
	runSpan.Fail(err)
	runSpan.End()
	if err != nil {
		jobSpan.Fail(err)
		return Report{}, err
	}
	reportSpan := jobSpan.Child("report")
	defer reportSpan.End()

	rep := Report{Label: label, Ranks: make([]RankResult, cfg.Procs)}
	if cs != nil {
		rep.Links = cs.sol.Links
	}
	var busySum, waitSum float64
	for i, r := range ranks {
		r.closeRegions()
		res := RankResult{
			Rank:   i,
			Node:   r.node,
			Finish: r.clock.Now(),
			Busy:   r.clock.BusyTime(),
			Wait:   r.clock.WaitTime(),
			Stats:  r.stats,
		}
		rep.Ranks[i] = res
		if units.Duration(res.Finish) > rep.Makespan {
			rep.Makespan = units.Duration(res.Finish)
		}
		rep.TotalFlops += res.Stats.Flops
		rep.TotalBytesSent += res.Stats.BytesSent
		rep.TotalMsgs += res.Stats.MsgsSent
		busySum += res.Busy.Seconds()
		waitSum += res.Wait.Seconds()
	}
	n := float64(cfg.Procs)
	rep.MeanBusy = units.DurationFromSeconds(busySum / n)
	rep.MeanWait = units.DurationFromSeconds(waitSum / n)

	if cfg.Counters != nil {
		jc := &metrics.JobCounters{Ranks: make([]metrics.RankCounters, len(ranks))}
		for i, r := range ranks {
			jc.Ranks[i] = r.pmu.Counters(i)
		}
		rep.Counters = jc
	}

	if cfg.Trace != nil {
		job := rep
		job.Events = mergeEvents(ranks)
		cfg.Trace(&job)
	}
	// The virtual-clock side of the story: how long the simulated
	// machine ran, alongside the wall-clock spans of how long the host
	// worked to simulate it.
	jobSpan.Record("virtual-makespan", telemetry.ClockVirtual, 0, int64(rep.Makespan),
		telemetry.Attr{Key: "gflops", Value: rep.GFLOPs()})
	return rep, nil
}

// runRanks executes body on every rank under the event engine and
// returns the ranks, allocated as one slab, with their final clocks and
// logs. cs selects the congestion-replay mode (nil = contention-free
// pricing).
func runRanks(cfg JobConfig, body func(*Rank) error, cs *congestState) ([]*Rank, error) {
	j := &job{cfg: cfg, congest: cs}
	j.opt = perfmodel.PhaseOptions{Cores: cfg.ThreadsPerRank, FastMath: cfg.FastMath}
	for c := range j.rates {
		j.rates[c] = cfg.CostModel.Rates(perfmodel.KernelClass(c), j.opt)
	}
	j.net.init(cfg.Fabric, cfg.Nodes)
	perNode := (cfg.Procs + cfg.Nodes - 1) / cfg.Nodes
	slab := make([]Rank, cfg.Procs)
	ranks := make([]*Rank, cfg.Procs)
	for i := range ranks {
		r := &slab[i]
		r.id, r.size, r.node = i, cfg.Procs, i/perNode
		r.job = j
		if cfg.Counters != nil {
			r.pmu = metrics.NewRankPMU(*cfg.Counters)
		}
		ranks[i] = r
	}
	return ranks, runEventLoop(j, ranks, body)
}
