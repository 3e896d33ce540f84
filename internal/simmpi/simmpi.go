// Package simmpi is a message-passing runtime for simulated parallel
// jobs: MPI rank bodies run under a single-threaded discrete-event loop
// (event.go), real data moves between them as messages, and every
// operation is priced in virtual time by the perfmodel (compute) and
// netmodel (communication) packages.
//
// The design keeps the classic MPI shape — ranks, tags, point-to-point
// sends and receives, and collectives — so the benchmark codes read like
// their MPI originals. Virtual-time causality follows the conservative
// rule implemented in package vclock: a receive completes at
// max(receiver clock, message availability), where availability is the
// sender's clock at the send plus the fabric's transfer cost.
//
// World collectives run as one batched event once every rank has
// arrived (collective_batch.go). Each rank still performs the exact
// per-rank message sequence of a real algorithm (dissemination barrier,
// recursive-doubling allreduce, binomial broadcast, ring allgather), so
// their virtual-time behaviour — including load imbalance arriving at a
// collective — follows from per-message pricing rather than from a
// closed-form formula.
package simmpi

import (
	"fmt"
	"math"

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
	// RankModel supplies the calibrated per-rank cost model; it is
	// called once per rank at startup. Required.
	RankModel func(rank int) *perfmodel.CostModel
	// Fabric prices inter-node communication. Required if Nodes > 1;
	// a nil fabric with Nodes == 1 prices all messages as intra-node
	// at a default shared-memory cost.
	Fabric *netmodel.Fabric
	// NodeOf maps a rank to its node index; nil means block placement
	// (rank r lives on node r/(Procs/Nodes)).
	NodeOf func(rank int) int
	// NoiseProb and NoiseDuration model OS/system noise: with the
	// given probability per compute phase (deterministically hashed
	// from rank and sequence number, so runs are reproducible), a rank
	// is delayed by NoiseDuration. In bulk-synchronous codes this is
	// what erodes parallel efficiency at scale — the effect behind the
	// paper's Table VII values.
	NoiseProb     float64
	NoiseDuration units.Duration
	// Label names the job in trace output (EvJobBegin/EvJobEnd markers);
	// empty defaults to "job p=<Procs>".
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
	if c.RankModel == nil {
		return fmt.Errorf("simmpi: RankModel is required")
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
	if c.NodeOf == nil {
		perNode := (c.Procs + c.Nodes - 1) / c.Nodes
		c.NodeOf = func(r int) int { return r / perNode }
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

func (singleNodeTopo) Name() string               { return "single-node" }
func (singleNodeTopo) Hops(a, b int) int          { return 0 }
func (singleNodeTopo) Route(a, b int) []topo.Link { return nil }
func (singleNodeTopo) MaxNodes() int              { return 1 }

// message is the unit carried between ranks. Float payloads — the
// overwhelming majority, including every collective internal — travel
// in the concrete floats field; boxing a slice into `any` costs a heap
// allocation per message, which at 10⁵ ranks is most of the garbage a
// job makes. payload carries the rare non-float Send.
type message struct {
	floats  []float64
	payload any
	bytes   units.Bytes
	avail   vclock.Time
}

// job is the shared state of a running simulated job.
type job struct {
	cfg     JobConfig
	congest *congestState // nil unless Congestion is on and Nodes > 1

	// Split coordination (see comm.go).
	splits   map[int]*splitState
	splitSeq map[int]int
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
	// ClassTime breaks busy time down by kernel class.
	ClassTime map[perfmodel.KernelClass]units.Duration
}

// Rank is one simulated MPI process. The body function owns it; it is not
// safe for concurrent use.
type Rank struct {
	id       int
	size     int
	node     int
	clock    *vclock.Clock
	model    *perfmodel.CostModel
	job      *job
	eng      *eventEngine
	stats    Stats
	noiseSeq uint64
	events   []Event
	regions  []regionFrame

	// pmu is the rank's virtual performance-counter unit (nil unless
	// JobConfig.Counters is set); collDepth tracks collective nesting so
	// only the outermost collective attributes its time.
	pmu       *metrics.RankPMU
	collDepth int

	// Congestion-replay state (see congested.go): flowSeq numbers this
	// rank's sends per (dst, tag) in program order so both passes derive
	// identical flow keys; flows is the recording pass's log.
	flowSeq map[flowRoute]int
	flows   []congestion.Flow
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the total rank count.
func (r *Rank) Size() int { return r.size }

// Node returns the node index this rank is placed on.
func (r *Rank) Node() int { return r.node }

// Now returns the rank's current virtual time.
func (r *Rank) Now() vclock.Time { return r.clock.Now() }

// Model exposes the rank's cost model (read-only use).
func (r *Rank) Model() *perfmodel.CostModel { return r.model }

// Stats returns a copy of the rank's accumulated statistics.
func (r *Rank) Stats() Stats {
	s := r.stats
	s.ClassTime = make(map[perfmodel.KernelClass]units.Duration, len(r.stats.ClassTime))
	for k, v := range r.stats.ClassTime {
		s.ClassTime[k] = v
	}
	return s
}

// Compute executes a metered kernel phase: the rank's clock advances by
// the modelled phase time.
func (r *Rank) Compute(w perfmodel.WorkProfile) {
	opt := perfmodel.PhaseOptions{
		Cores:    r.job.cfg.ThreadsPerRank,
		FastMath: r.job.cfg.FastMath,
	}
	var d units.Duration
	switch {
	case r.pmu != nil && r.job.cfg.Model == perfmodel.ModelECM:
		// ECM mode: the per-level transfer phases are first-class
		// counters. TimeFlops carries the in-core phase; the memory
		// wait is split across the ecm.* level counters instead of
		// stall.mem, and the overlap credit is subtracted so
		// TimeFlops + ecm.l1 + ecm.l2 + ecm.mem + stall.call −
		// ecm.hidden == phase time exactly.
		bd := r.model.ECMBreakdown(w, opt)
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
	case r.pmu != nil:
		// PhaseBreakdown evaluates the same roofline terms as PhaseTime
		// (bd.Time is bit-identical), plus the counter-grade split.
		bd := r.model.PhaseBreakdown(w, opt)
		d = bd.Time
		r.pmu.Add(metrics.FlopsFor(w.Class), float64(w.Flops))
		r.pmu.Add(metrics.MemDRAM, float64(w.Bytes))
		r.pmu.Add(metrics.MemL2, float64(bd.L2Bytes))
		r.pmu.Add(metrics.MemL1, float64(bd.L1Bytes))
		r.pmu.AddTime(metrics.TimeFlops, bd.FlopTime)
		r.pmu.AddTime(metrics.StallMem, bd.MemStall)
		r.pmu.AddTime(metrics.StallCall, bd.Overhead)
	default:
		d = r.model.PhaseTimeFor(r.job.cfg.Model, w, opt)
	}
	start := r.clock.Now()
	r.clock.Advance(d)
	r.observe()
	r.record(Event{
		Kind: EvCompute, Start: start, Duration: d, Class: w.Class,
		Peer: -1, Flops: w.Flops, Bytes: w.Bytes,
	})
	if p := r.job.cfg.NoiseProb; p > 0 {
		r.noiseSeq++
		h := splitmix64(uint64(r.id)*0x9E3779B97F4A7C15 + r.noiseSeq)
		if float64(h>>11)/(1<<53) < p {
			r.record(Event{Kind: EvNoise, Start: r.clock.Now(), Duration: r.job.cfg.NoiseDuration, Peer: -1})
			r.clock.Advance(r.job.cfg.NoiseDuration)
			if r.pmu != nil {
				r.pmu.AddTime(metrics.StallNoise, r.job.cfg.NoiseDuration)
				r.observe()
			}
		}
	}
	r.stats.Flops += w.Flops
	r.stats.MemBytes += w.Bytes
	if r.stats.ClassTime == nil {
		r.stats.ClassTime = make(map[perfmodel.KernelClass]units.Duration)
	}
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
	r.clock.Advance(d)
	if r.pmu != nil {
		r.pmu.AddTime(metrics.TimeOther, d)
		r.observe()
	}
}

// sendCore prices one outgoing message and performs every per-rank side
// effect of a send — clock, PMU, statistics, congestion flows, and the
// trace event — but leaves delivery to the caller. Point-to-point sends
// and the batched collective executor share it, so a collective costs
// exactly what the same message sequence sent one by one would.
func (r *Rank) sendCore(dst, tag int, payload any, bytes units.Bytes) message {
	m := r.sendFloatsCore(dst, tag, nil, bytes)
	m.payload = payload
	return m
}

// sendFloatsCore is sendCore for float-slice payloads — the dominant
// case, including every collective internal. Keeping the slice header
// in the message's concrete floats field avoids the interface-boxing
// heap allocation that Send pays once per message.
func (r *Rank) sendFloatsCore(dst, tag int, data []float64, bytes units.Bytes) message {
	if dst < 0 || dst >= r.size {
		panic(fmt.Sprintf("simmpi: send to invalid rank %d (size %d)", dst, r.size))
	}
	f := r.job.cfg.Fabric
	dstNode := r.job.cfg.NodeOf(dst)
	sendAt := r.clock.Now()
	var total units.Duration
	if cs := r.job.congest; cs != nil && dstNode != r.node {
		k := congestion.FlowKey{Src: r.id, Dst: dst, Tag: tag, Seq: r.nextFlowSeq(dst, tag)}
		if cs.recording {
			total = f.PointToPoint(r.node, dstNode, bytes)
			if bytes > 0 {
				r.flows = append(r.flows, congestion.Flow{
					Key: k, SrcNode: r.node, DstNode: dstNode,
					Start: sendAt, Bytes: bytes,
				})
			}
		} else {
			total = f.PointToPointDilated(r.node, dstNode, bytes, cs.sol.Dilation(k))
		}
	} else {
		// Contention-free pricing is a pure function of (hops, bytes);
		// the engine memoises it (see eventEngine.price).
		total = r.eng.price(r.node, dstNode, bytes)
	}
	// The sender's CPU is occupied for the injection overhead; the rest
	// of the transfer overlaps with whatever the sender does next.
	r.clock.Advance(f.SoftwareOverhead / 2)
	if r.pmu != nil {
		r.pmu.AddTime(metrics.NetInject, f.SoftwareOverhead/2)
		r.pmu.Add(metrics.SentMsgs, 1)
		r.pmu.Add(metrics.SentBytes, float64(bytes))
		r.pmu.AddPeer(dst, bytes)
		r.observe()
	}
	r.stats.MsgsSent++
	r.stats.BytesSent += bytes
	r.record(Event{Kind: EvSend, Start: sendAt, Duration: f.SoftwareOverhead / 2, Peer: dst, Tag: tag, Bytes: bytes})
	return message{
		floats: data,
		bytes:  bytes,
		avail:  sendAt.Add(total),
	}
}

// recvCore performs every per-rank side effect of receiving m — the
// virtual-time jump to its availability, PMU, and the trace event — and
// returns the payload. The caller has already matched the message.
func (r *Rank) recvCore(m message, src, tag int) any {
	r.recvFloatsCore(m, src, tag)
	if m.floats != nil {
		return m.floats
	}
	return m.payload
}

// recvFloatsCore is recvCore for float-slice payloads: identical side
// effects, but the payload stays a concrete []float64 end to end.
func (r *Rank) recvFloatsCore(m message, src, tag int) []float64 {
	start := r.clock.Now()
	r.clock.AdvanceTo(m.avail)
	wait := units.Duration(vclock.Max(m.avail, start) - start)
	if r.pmu != nil {
		r.pmu.AddTime(metrics.StallNet, wait)
		r.pmu.Add(metrics.RecvMsgs, 1)
		r.pmu.Add(metrics.RecvBytes, float64(m.bytes))
		r.observe()
	}
	r.record(Event{
		Kind: EvRecv, Start: start,
		Duration: wait,
		Peer:     src, Tag: tag, Bytes: m.bytes,
	})
	return m.floats
}

// fetch blocks until a message from src with the given tag is matched.
func (r *Rank) fetch(src, tag int) message {
	if src < 0 || src >= r.size {
		panic(fmt.Sprintf("simmpi: recv from invalid rank %d (size %d)", src, r.size))
	}
	return r.eng.await(r, src, tag)
}

// Send transmits payload to rank dst with the given tag. The payload's
// ownership passes to the receiver; senders must not mutate it afterwards.
// bytes is the modelled wire size (callers know their datatype sizes).
func (r *Rank) Send(dst, tag int, payload any, bytes units.Bytes) {
	r.eng.post(r.id, dst, tag, r.sendCore(dst, tag, payload, bytes))
}

// Recv blocks until a message from src with the given tag arrives,
// advances virtual time to its availability, and returns the payload.
func (r *Rank) Recv(src, tag int) any {
	return r.recvCore(r.fetch(src, tag), src, tag)
}

// SendFloats sends a float64 slice (8 bytes per element on the wire).
// Unlike Send, the slice is never boxed into an interface, so the send
// itself does not allocate.
func (r *Rank) SendFloats(dst, tag int, data []float64) {
	r.eng.post(r.id, dst, tag, r.sendFloatsCore(dst, tag, data, units.Bytes(8*len(data))))
}

// RecvFloats receives a float64 slice sent with SendFloats.
func (r *Rank) RecvFloats(src, tag int) []float64 {
	return r.recvFloatsCore(r.fetch(src, tag), src, tag)
}

// Sendrecv exchanges slices with a partner rank without deadlock (sends
// are buffered/eager). It returns the partner's payload.
func (r *Rank) Sendrecv(partner, tag int, data []float64) []float64 {
	r.SendFloats(partner, tag, data)
	return r.RecvFloats(partner, tag)
}

// Internal tags for collectives live far above user tags.
const (
	tagBarrier = 1 << 20
	tagReduce  = 1 << 21
	tagBcast   = 1 << 22
	tagGather  = 1 << 23
	tagA2A     = 1 << 24
	tagRS      = 1 << 25
	tagScan    = 1 << 26
)

// collBegin opens a collective for PMU time attribution and returns
// its start time; collEnd (deferred) closes it. Only the outermost
// collective attributes — nested ones (e.g. the non-power-of-two
// ReduceScatter path reducing to a root) are part of their parent.
func (r *Rank) collBegin() vclock.Time {
	r.collDepth++
	return r.clock.Now()
}

func (r *Rank) collEnd(c metrics.Collective, start vclock.Time) {
	r.collDepth--
	if r.pmu != nil && r.collDepth == 0 {
		r.pmu.AddTime(metrics.CollTime(c), units.Duration(r.clock.Now()-start))
	}
}

// Barrier synchronises all ranks with a dissemination barrier.
func (r *Rank) Barrier() {
	if r.size > 1 {
		r.eng.collective(r, collArgs{kind: collBarrier})
	}
}

// Op is a reduction operator for float64 elements.
type Op func(a, b float64) float64

// Standard reduction operators.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = math.Max
	OpMin Op = math.Min
)

// Allreduce combines buf element-wise across all ranks with op, leaving
// the result in buf on every rank. It uses recursive doubling with the
// standard pre/post folding for non-power-of-two sizes.
func (r *Rank) Allreduce(buf []float64, op Op) {
	if r.size > 1 {
		r.eng.collective(r, collArgs{kind: collAllreduce, buf: buf, op: op})
	}
}

// AllreduceScalar reduces a single value across ranks.
func (r *Rank) AllreduceScalar(v float64, op Op) float64 {
	buf := []float64{v}
	r.Allreduce(buf, op)
	return buf[0]
}

// Bcast distributes root's buf to every rank via a binomial tree and
// returns the (possibly replaced) slice.
func (r *Rank) Bcast(root int, buf []float64) []float64 {
	if r.size == 1 {
		return buf
	}
	return r.eng.collective(r, collArgs{kind: collBcast, buf: buf, root: root}).([]float64)
}

// Reduce combines buf onto the root (binomial tree). Non-root ranks'
// buffers are left partially combined, as in MPI.
func (r *Rank) Reduce(root int, buf []float64, op Op) {
	if r.size > 1 {
		r.eng.collective(r, collArgs{kind: collReduce, buf: buf, op: op, root: root})
	}
}

// Allgather concatenates each rank's contribution, in rank order, on all
// ranks using the ring algorithm. Each contribution must have length n.
func (r *Rank) Allgather(contrib []float64) []float64 {
	n := len(contrib)
	out := make([]float64, n*r.size)
	copy(out[r.id*n:], contrib)
	if r.size == 1 {
		return out
	}
	return r.eng.collective(r, collArgs{kind: collAllgather, buf: contrib, out: out}).([]float64)
}

// Alltoall performs a pairwise-exchange all-to-all: send[i] goes to rank
// i, and the returned slice holds what each rank sent to us, indexed by
// source. Each send[i] must have equal length.
func (r *Rank) Alltoall(send [][]float64) [][]float64 {
	p := r.size
	if len(send) != p {
		panic(fmt.Sprintf("simmpi: Alltoall needs %d blocks, got %d", p, len(send)))
	}
	recv := make([][]float64, p)
	recv[r.id] = send[r.id]
	if p == 1 {
		return recv
	}
	return r.eng.collective(r, collArgs{kind: collAlltoall, mat: send, recvMat: recv}).([][]float64)
}

// ReduceScatter reduces buf element-wise across ranks and scatters the
// result: rank i receives the reduced block i of the p equal blocks of
// buf (len(buf) must be divisible by p). Power-of-two sizes use the
// first half of Rabenseifner's allreduce (pairwise exchange with
// recursive halving); other sizes reduce to rank 0 and scatter.
func (r *Rank) ReduceScatter(buf []float64, op Op) []float64 {
	if len(buf)%r.size != 0 {
		panic(fmt.Sprintf("simmpi: ReduceScatter length %d not divisible by %d ranks", len(buf), r.size))
	}
	if r.size == 1 {
		return append([]float64(nil), buf...)
	}
	return r.eng.collective(r, collArgs{kind: collReduceScatter, buf: buf, op: op}).([]float64)
}

// ExScan computes the exclusive prefix reduction: rank i receives
// op(buf₀, …, buf_{i-1}) element-wise; rank 0 receives zeros (the
// additive identity — intended for OpSum-style operators). Linear
// pipeline implementation.
func (r *Rank) ExScan(buf []float64, op Op) []float64 {
	if r.size == 1 {
		return make([]float64, len(buf))
	}
	return r.eng.collective(r, collArgs{kind: collExScan, buf: buf, op: op}).([]float64)
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

// Report summarises a completed job.
type Report struct {
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
	// enabled multi-node run; nil otherwise.
	Links *congestion.LinkReport
	// Counters is the virtual PMU's accounting — final per-rank counter
	// vectors, sampled virtual-time series, and per-peer traffic —
	// present exactly when JobConfig.Counters was set.
	Counters *metrics.JobCounters
}

// GFLOPs reports the aggregate achieved rate: total flops over makespan.
func (rep Report) GFLOPs() float64 {
	return units.Rate(float64(rep.TotalFlops), rep.Makespan) / 1e9
}

// Seconds reports the makespan in seconds.
func (rep Report) Seconds() float64 { return rep.Makespan.Seconds() }

// Run executes body on every rank of the configured job and returns the
// aggregated report. The first non-nil error from any rank aborts the
// report (every parked rank is still unwound, so nothing leaks).
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
		sol, err := recordAndSolve(cfg, body, jobSpan)
		if err != nil {
			jobSpan.Fail(err)
			return Report{}, err
		}
		cs = &congestState{sol: sol}
	}
	runSpan := jobSpan.Child("run-pass")
	ranks, err := runRanks(cfg, body, cs)
	runSpan.Fail(err)
	runSpan.End()
	if err != nil {
		jobSpan.Fail(err)
		return Report{}, err
	}
	reportSpan := jobSpan.Child("report")
	defer reportSpan.End()

	rep := Report{Ranks: make([]RankResult, cfg.Procs)}
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
			Stats:  r.Stats(),
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
		// Merge per-rank logs into one deterministic stream, ordered by
		// virtual time and rank.
		var tl Timeline
		for _, r := range ranks {
			tl = append(tl, r.events...)
		}
		sortTimeline(tl)
		cfg.Trace.Record(Event{Kind: EvJobBegin, Rank: -1, Node: -1, Peer: -1, Name: label})
		for _, e := range tl {
			cfg.Trace.Record(e)
		}
		emitLinkEvents(cfg.Trace, rep.Links)
		emitCounterEvents(cfg.Trace, &rep)
		cfg.Trace.Record(Event{
			Kind: EvJobEnd, Rank: -1, Node: -1, Peer: -1, Name: label,
			Start: vclock.Time(rep.Makespan), Duration: rep.Makespan,
		})
	}
	// The virtual-clock side of the story: how long the simulated
	// machine ran, alongside the wall-clock spans of how long the host
	// worked to simulate it.
	jobSpan.Record("virtual-makespan", telemetry.ClockVirtual, 0, int64(rep.Makespan),
		telemetry.Attr{Key: "gflops", Value: rep.GFLOPs()})
	return rep, nil
}

// runRanks executes body on every rank under the event loop and returns the ranks with their final clocks and logs. cs selects the
// congestion-replay mode (nil = contention-free pricing).
func runRanks(cfg JobConfig, body func(*Rank) error, cs *congestState) ([]*Rank, error) {
	j := &job{cfg: cfg, congest: cs, splits: map[int]*splitState{}, splitSeq: map[int]int{}}
	ranks := make([]*Rank, cfg.Procs)
	for i := range ranks {
		ranks[i] = &Rank{
			id:    i,
			size:  cfg.Procs,
			node:  cfg.NodeOf(i),
			clock: vclock.NewClock(),
			model: cfg.RankModel(i),
			job:   j,
		}
		if cfg.Counters != nil {
			ranks[i].pmu = metrics.NewRankPMU(*cfg.Counters, cfg.Procs)
		}
	}
	return ranks, runEventLoop(j, ranks, body)
}
