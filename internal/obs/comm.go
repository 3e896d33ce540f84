package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

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

// pair is one (src,dst) traffic entry for the heavy-hitters listing.
type pair struct {
	src, dst int
	msgs     int64
	bytes    units.Bytes
}

// heaviest lists the k heaviest (by bytes, then msgs) traffic pairs.
func (m *CommMatrix) heaviest(k int) []pair {
	var ps []pair
	for s := 0; s < m.N; s++ {
		for d := 0; d < m.N; d++ {
			if m.Msgs[s][d] > 0 {
				ps = append(ps, pair{s, d, m.Msgs[s][d], m.Bytes[s][d]})
			}
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].bytes != ps[j].bytes {
			return ps[i].bytes > ps[j].bytes
		}
		if ps[i].msgs != ps[j].msgs {
			return ps[i].msgs > ps[j].msgs
		}
		if ps[i].src != ps[j].src {
			return ps[i].src < ps[j].src
		}
		return ps[i].dst < ps[j].dst
	})
	if len(ps) > k {
		ps = ps[:k]
	}
	return ps
}

// Render writes a human-readable traffic report: totals, the full
// matrix (bytes) when it is small enough to read, the node-aggregated
// view for multi-node jobs, and the heaviest pairs.
func (m *CommMatrix) Render(w io.Writer) error {
	unit := "rank"
	if m.Nodes {
		unit = "node"
	}
	msgs, bytes := m.Totals()
	if _, err := fmt.Fprintf(w, "communication matrix (%d %ss): %d msgs, %v total\n",
		m.N, unit, msgs, bytes); err != nil {
		return err
	}
	if m.N <= 16 {
		if err := m.renderGrid(w, unit); err != nil {
			return err
		}
	}
	for _, p := range m.heaviest(10) {
		if _, err := fmt.Fprintf(w, "  %s %3d → %-3d  %8d msgs  %v\n",
			unit, p.src, p.dst, p.msgs, p.bytes); err != nil {
			return err
		}
	}
	if !m.Nodes && m.NodeOf != nil {
		if nv := m.NodeView(); nv.N > 1 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
			return nv.Render(w)
		}
	}
	return nil
}

// renderGrid prints the byte matrix as a src×dst grid.
func (m *CommMatrix) renderGrid(w io.Writer, unit string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "  %8s", unit+`\`+unit)
	for d := 0; d < m.N; d++ {
		fmt.Fprintf(&b, " %10d", d)
	}
	b.WriteByte('\n')
	for s := 0; s < m.N; s++ {
		fmt.Fprintf(&b, "  %8d", s)
		for d := 0; d < m.N; d++ {
			if m.Msgs[s][d] == 0 {
				fmt.Fprintf(&b, " %10s", "·")
			} else {
				fmt.Fprintf(&b, " %10v", m.Bytes[s][d])
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
