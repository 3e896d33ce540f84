package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// PhaseContrib attributes a slice of the critical path to one phase —
// a region (with its kind/class suffix) or, outside any region, the
// bare kind/class.
type PhaseContrib struct {
	// Label is "region-path:kind" (e.g. "cg-iter/halo:recv") or the
	// bare kind/class for unannotated events.
	Label string `json:"label"`
	// Time is the path time attributed to the phase and Fraction its
	// share of the whole path.
	Time     units.Duration `json:"time_ns"`
	Fraction float64        `json:"fraction"`
	// Steps counts path events attributed to the phase.
	Steps int `json:"steps"`
}

// CriticalPath is the longest dependency chain through a job's
// happens-before DAG: events ordered by rank program order plus
// send→recv message edges. Its length bounds how fast the job could
// ever finish; the gap to the makespan is pure scheduling slack.
type CriticalPath struct {
	// Length is the path's elapsed virtual time and Makespan the job's;
	// Fraction is Length/Makespan.
	Length   units.Duration `json:"length_ns"`
	Makespan units.Duration `json:"makespan_ns"`
	Fraction float64        `json:"fraction"`
	// Steps counts events on the path.
	Steps int `json:"steps"`
	// Phases attributes the path time, largest first.
	Phases []PhaseContrib `json:"phases"`
}

// cpNode is one DAG node of the critical-path computation.
type cpNode struct {
	start  vclock.Time
	finish vclock.Time
	// prev is the same-rank predecessor node index, -1 for the first.
	prev int
	// sender is the matching send's node index for recv nodes, -1
	// otherwise.
	sender int
	label  string
}

// routeKey identifies one FIFO message route.
type routeKey struct {
	src, dst, tag int
}

// ComputeCriticalPath runs the longest-path dynamic program over the
// job's happens-before DAG. Overlap is handled exactly: a successor
// only accrues the time past its predecessor's finish, so the path
// length never exceeds the makespan, and — because each rank's events
// chain — never undercuts the busiest rank's recorded time.
func ComputeCriticalPath(job *simmpi.Report) (*CriticalPath, error) {
	nodes, err := buildDAG(job.Events)
	if err != nil {
		return nil, err
	}
	cp := &CriticalPath{Makespan: job.Makespan}
	if len(nodes) == 0 {
		return cp, nil
	}

	// Longest path to each node's finish. L(e) = max over predecessors
	// p of L(p) + (finish_e − max(start_e, finish_p)), with the virtual
	// source (L=0, finish=0) always a predecessor. Recursion is
	// memoized with an explicit stack: the merged timeline's order is
	// NOT topological (a recv can start before its matching send), so
	// a simple left-to-right sweep would read uncomputed states.
	longest := make([]units.Duration, len(nodes))
	via := make([]int, len(nodes)) // chosen predecessor, -1 = source
	done := make([]bool, len(nodes))
	var stack []int
	compute := func(root int) {
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			if done[i] {
				stack = stack[:len(stack)-1]
				continue
			}
			n := &nodes[i]
			ready := true
			for _, p := range [2]int{n.prev, n.sender} {
				if p >= 0 && !done[p] {
					stack = append(stack, p)
					ready = false
				}
			}
			if !ready {
				continue
			}
			stack = stack[:len(stack)-1]
			best := units.Duration(n.finish - n.start)
			bestVia := -1
			for _, p := range [2]int{n.prev, n.sender} {
				if p < 0 {
					continue
				}
				gate := nodes[p].finish
				if n.start > gate {
					gate = n.start
				}
				if l := longest[p] + units.Duration(n.finish-gate); l > best {
					best, bestVia = l, p
				}
			}
			longest[i], via[i] = best, bestVia
			done[i] = true
		}
	}

	end := 0
	for i := range nodes {
		compute(i)
		if longest[i] > longest[end] {
			end = i
		}
	}
	cp.Length = longest[end]
	if cp.Makespan > 0 {
		cp.Fraction = cp.Length.Seconds() / cp.Makespan.Seconds()
	}

	// Walk the path backwards, attributing each step's contribution.
	byPhase := map[string]*PhaseContrib{}
	for i := end; i >= 0; {
		n := &nodes[i]
		contrib := longest[i]
		if p := via[i]; p >= 0 {
			contrib -= longest[p]
		}
		pc := byPhase[n.label]
		if pc == nil {
			pc = &PhaseContrib{Label: n.label}
			byPhase[n.label] = pc
		}
		pc.Time += contrib
		pc.Steps++
		cp.Steps++
		i = via[i]
	}
	for _, pc := range byPhase {
		if cp.Length > 0 {
			pc.Fraction = pc.Time.Seconds() / cp.Length.Seconds()
		}
		cp.Phases = append(cp.Phases, *pc)
	}
	sort.Slice(cp.Phases, func(i, j int) bool {
		if cp.Phases[i].Time != cp.Phases[j].Time {
			return cp.Phases[i].Time > cp.Phases[j].Time
		}
		return cp.Phases[i].Label < cp.Phases[j].Label
	})
	return cp, nil
}

// buildDAG turns the timeline into DAG nodes: per-rank program-order
// chains plus send→recv edges matched per (src,dst,tag) route in FIFO
// order — exactly the runtime's mailbox semantics.
func buildDAG(events simmpi.Timeline) ([]cpNode, error) {
	var nodes []cpNode
	lastOnRank := map[int]int{}
	regions := map[int][]string{}
	sends := map[routeKey][]int{}
	type recvRef struct {
		node int
		key  routeKey
		seq  int
	}
	var recvs []recvRef
	recvSeq := map[routeKey]int{}

	for _, e := range events {
		switch e.Kind {
		case simmpi.EvRegionBegin:
			regions[e.Rank] = append(regions[e.Rank], e.Name)
			continue
		case simmpi.EvRegionEnd:
			if s := regions[e.Rank]; len(s) > 0 {
				regions[e.Rank] = s[:len(s)-1]
			}
			continue
		case simmpi.EvCompute, simmpi.EvSend, simmpi.EvRecv, simmpi.EvNoise:
		default:
			continue
		}
		prev, ok := lastOnRank[e.Rank]
		if !ok {
			prev = -1
		}
		n := cpNode{
			start:  e.Start,
			finish: e.Finish(),
			prev:   prev,
			sender: -1,
			label:  phaseLabel(e, regions[e.Rank]),
		}
		idx := len(nodes)
		nodes = append(nodes, n)
		lastOnRank[e.Rank] = idx
		switch e.Kind {
		case simmpi.EvSend:
			k := routeKey{src: e.Rank, dst: e.Peer, tag: e.Tag}
			sends[k] = append(sends[k], idx)
		case simmpi.EvRecv:
			k := routeKey{src: e.Peer, dst: e.Rank, tag: e.Tag}
			recvs = append(recvs, recvRef{node: idx, key: k, seq: recvSeq[k]})
			recvSeq[k]++
		}
	}

	// Second pass: the merged timeline orders each route's sends (one
	// sender, program order) and recvs (one receiver, program order),
	// so the k-th recv on a route matches the k-th send.
	for _, r := range recvs {
		ss := sends[r.key]
		if r.seq >= len(ss) {
			return nil, fmt.Errorf("obs: recv %d on route %+v has no matching send (trace truncated?)", r.seq, r.key)
		}
		nodes[r.node].sender = ss[r.seq]
	}
	return nodes, nil
}

// phaseLabel names an event's phase: the enclosing region path plus the
// kind (or kernel class for compute), e.g. "cg-iter/halo:recv" or
// "spmv" outside regions.
func phaseLabel(e simmpi.Event, regionStack []string) string {
	var base string
	switch e.Kind {
	case simmpi.EvCompute:
		base = e.Class.String()
	default:
		base = e.Kind.String()
	}
	if len(regionStack) == 0 {
		return base
	}
	return strings.Join(regionStack, "/") + ":" + base
}

// Render writes the critical-path report.
func (cp *CriticalPath) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "critical path: %v of %v makespan (%.1f%%), %d events\n",
		cp.Length, cp.Makespan, 100*cp.Fraction, cp.Steps); err != nil {
		return err
	}
	top := cp.Phases
	if len(top) > 12 {
		top = top[:12]
	}
	for _, p := range top {
		if _, err := fmt.Fprintf(w, "  %-32s %12v %6.1f%%  (%d events)\n",
			p.Label, p.Time, 100*p.Fraction, p.Steps); err != nil {
			return err
		}
	}
	return nil
}
