package obs

import (
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// CommMatrix is the rank×rank (or, after NodeView, node×node)
// point-to-point traffic matrix of one traced job: entry
// [src][dst] counts messages and wire bytes sent from src to dst,
// collective internals included.
type CommMatrix struct {
	// N is the matrix dimension (ranks, or nodes for a node view).
	N int `json:"n"`
	// Msgs and Bytes index [src][dst].
	Msgs  [][]int64       `json:"msgs"`
	Bytes [][]units.Bytes `json:"bytes"`
	// NodeOf maps rank→node; nil in node views.
	NodeOf []int `json:"node_of,omitempty"`
	// Nodes is true for a per-node aggregated view.
	Nodes bool `json:"nodes,omitempty"`
}

// BuildCommMatrix accumulates the job's traffic matrix from its send
// events.
func BuildCommMatrix(job *simmpi.Report) *CommMatrix {
	n := len(job.Ranks)
	m := newCommMatrix(n)
	m.NodeOf = make([]int, n)
	for r, rr := range job.Ranks {
		m.NodeOf[r] = rr.Node
	}
	for _, e := range job.Events {
		if e.Kind != simmpi.EvSend || e.Peer < 0 || e.Peer >= n {
			continue
		}
		m.Msgs[e.Rank][e.Peer]++
		m.Bytes[e.Rank][e.Peer] += e.Bytes
	}
	return m
}

func newCommMatrix(n int) *CommMatrix {
	m := &CommMatrix{N: n, Msgs: make([][]int64, n), Bytes: make([][]units.Bytes, n)}
	for i := 0; i < n; i++ {
		m.Msgs[i] = make([]int64, n)
		m.Bytes[i] = make([]units.Bytes, n)
	}
	return m
}

// NodeView aggregates the rank matrix into a node×node matrix using the
// placement recorded in the trace.
func (m *CommMatrix) NodeView() *CommMatrix {
	nodes := 0
	for _, n := range m.NodeOf {
		if n >= nodes {
			nodes = n + 1
		}
	}
	if nodes == 0 {
		nodes = 1
	}
	v := newCommMatrix(nodes)
	v.Nodes = true
	for s := 0; s < m.N; s++ {
		for d := 0; d < m.N; d++ {
			v.Msgs[m.NodeOf[s]][m.NodeOf[d]] += m.Msgs[s][d]
			v.Bytes[m.NodeOf[s]][m.NodeOf[d]] += m.Bytes[s][d]
		}
	}
	return v
}

// Totals sums the matrix.
func (m *CommMatrix) Totals() (msgs int64, bytes units.Bytes) {
	for s := 0; s < m.N; s++ {
		for d := 0; d < m.N; d++ {
			msgs += m.Msgs[s][d]
			bytes += m.Bytes[s][d]
		}
	}
	return msgs, bytes
}
