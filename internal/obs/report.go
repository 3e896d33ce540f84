package obs

import (
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// Report bundles every analysis of one traced job: the communication
// matrix, the per-class roofline, and the critical path.
type Report struct {
	Label    string         `json:"label"`
	Ranks    int            `json:"ranks"`
	Nodes    int            `json:"nodes"`
	Makespan units.Duration `json:"makespan_ns"`

	Comm         *CommMatrix     `json:"comm"`
	CommByNode   *CommMatrix     `json:"comm_by_node,omitempty"`
	Roofline     []RooflinePoint `json:"roofline"`
	CriticalPath *CriticalPath   `json:"critical_path"`
	// Links is the interconnect contention heatmap; present only for
	// congestion-enabled multi-node jobs.
	Links *LinkHeatmap `json:"links,omitempty"`
	// Counters is the virtual PMU aggregation; present only for jobs
	// run with counters enabled.
	Counters *CounterReport `json:"counters,omitempty"`
}

// Analyze runs every analysis over one traced job.
func Analyze(job *simmpi.Report, peaks Peaks) (*Report, error) {
	cp, err := ComputeCriticalPath(job)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Label:        job.Label,
		Ranks:        len(job.Ranks),
		Nodes:        NumNodes(job),
		Makespan:     job.Makespan,
		Comm:         BuildCommMatrix(job),
		Roofline:     BuildRoofline(peaks, job),
		CriticalPath: cp,
		Links:        BuildLinkHeatmap(job),
		Counters:     BuildCounterReport(job, peaks),
	}
	if rep.Nodes > 1 {
		rep.CommByNode = rep.Comm.NodeView()
	}
	return rep, nil
}
