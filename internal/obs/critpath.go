package obs

import (
	"fmt"
	"sort"

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
	prev int32
	// sender is the matching send's node index for recv nodes, -1
	// otherwise.
	sender int32
	// label indexes the DAG's phase labels.
	label int32
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
	nodes, labels, err := buildDAG(job.Events)
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
			for _, p := range [2]int{int(n.prev), int(n.sender)} {
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
			for _, p := range [2]int{int(n.prev), int(n.sender)} {
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
		label := labels[n.label]
		pc := byPhase[label]
		if pc == nil {
			pc = &PhaseContrib{Label: label}
			byPhase[label] = pc
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
// order — exactly the runtime's mailbox semantics. It returns the nodes
// and the phase labels they index. One count over the timeline sizes
// the node and receive arrays, and each label is built once: a region
// path's prefix the first time a rank enters it, a phase label the first
// time its prefix and kind occur.
func buildDAG(events simmpi.Timeline) ([]cpNode, []string, error) {
	var nNodes, nRecvs, nRanks int
	for i := range events {
		e := &events[i]
		nRanks = max(nRanks, e.Rank+1)
		switch e.Kind {
		case simmpi.EvRecv:
			nRecvs++
			nNodes++
		case simmpi.EvCompute, simmpi.EvSend, simmpi.EvNoise:
			nNodes++
		}
	}
	nodes := make([]cpNode, 0, nNodes)
	type recvRef struct {
		node int32
		seq  int32
		key  routeKey
	}
	recvs := make([]recvRef, 0, nRecvs)
	lastOnRank := make([]int32, nRanks)
	for i := range lastOnRank {
		lastOnRank[i] = -1
	}
	// prefixes[r] is rank r's stack of label prefixes, one per open
	// region: the region path and a colon ("a:", "a/b:"). Outside any
	// region the prefix is empty.
	prefixes := make([][]string, nRanks)
	prefixOf := map[[2]string]string{} // (parent prefix, region) → prefix
	var labels []string
	labelOf := map[[2]string]int32{} // (prefix, kind or class) → label
	sends := map[routeKey][]int32{}
	recvSeq := map[routeKey]int32{}

	for i := range events {
		e := &events[i]
		switch e.Kind {
		case simmpi.EvRegionBegin:
			stack := prefixes[e.Rank]
			var parent string
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			key := [2]string{parent, e.Name}
			prefix, ok := prefixOf[key]
			if !ok {
				prefix = e.Name + ":"
				if parent != "" {
					prefix = parent[:len(parent)-1] + "/" + prefix
				}
				prefixOf[key] = prefix
			}
			prefixes[e.Rank] = append(stack, prefix)
			continue
		case simmpi.EvRegionEnd:
			if s := prefixes[e.Rank]; len(s) > 0 {
				prefixes[e.Rank] = s[:len(s)-1]
			}
			continue
		case simmpi.EvCompute, simmpi.EvSend, simmpi.EvRecv, simmpi.EvNoise:
		default:
			continue
		}
		var prefix string
		if s := prefixes[e.Rank]; len(s) > 0 {
			prefix = s[len(s)-1]
		}
		key := [2]string{prefix, phaseBase(e)}
		label, ok := labelOf[key]
		if !ok {
			label = int32(len(labels))
			labels = append(labels, key[0]+key[1])
			labelOf[key] = label
		}
		idx := int32(len(nodes))
		nodes = append(nodes, cpNode{
			start:  e.Start,
			finish: e.Finish(),
			prev:   lastOnRank[e.Rank],
			sender: -1,
			label:  label,
		})
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
		if int(r.seq) >= len(ss) {
			return nil, nil, fmt.Errorf("obs: recv %d on route %+v has no matching send (trace truncated?)", r.seq, r.key)
		}
		nodes[r.node].sender = ss[r.seq]
	}
	return nodes, labels, nil
}

// phaseBase names an event's kind, or its kernel class for compute. A
// phase label is its region path's prefix and this base, e.g.
// "cg-iter/halo:recv", or the bare base outside regions, e.g. "spmv".
func phaseBase(e *simmpi.Event) string {
	if e.Kind == simmpi.EvCompute {
		return e.Class.String()
	}
	return e.Kind.String()
}
