// Package core is the experiment harness: it maps every table and figure
// of the paper's evaluation to a runnable experiment, executes the
// benchmark packages on the simulated systems, and renders the results
// side by side with the paper's published values.
package core

import (
	"fmt"
	"sort"
	"strings"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
)

// Kind distinguishes tables from figures.
type Kind string

// Artifact kinds.
const (
	Table  Kind = "table"
	Figure Kind = "figure"
)

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the short handle, e.g. "table3" or "fig4".
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Kind is Table or Figure.
	Kind Kind
	// Description explains the workload and parameters.
	Description string
	// Run executes the experiment. Options scale effort: Quick trades
	// fewer simulated iterations for speed (shapes unchanged).
	Run func(opt Options) (*Artifact, error)
}

// Options tunes an experiment execution. Experiment Run functions hand
// the embedded simmpi.Instrumentation unchanged to every simulated job
// they run. Only fields covered by ArtifactKey — Quick, Machine and the
// instrumentation's Congestion and Model — may change the produced
// artifact; Trace, Counters and Telemetry observe without changing it.
// The defaults (contention-free network, roofline model) are what the
// golden artifacts pin.
type Options struct {
	// Quick reduces simulated iteration counts for fast smoke runs;
	// rates and shapes are unchanged (the simulation is steady-state).
	Quick bool
	// Machine names the target machine for machine-parameterized
	// experiments (the ext-machine suite runs its single-node
	// microbenchmarks on it). Paper artifacts ignore it — their system
	// sets are fixed by the paper — so it participates in ArtifactKey
	// only through the experiments that read it. Empty means the
	// experiment's own default (A64FX).
	Machine string
	simmpi.Instrumentation
}

// OptionsKey is the comparable projection of Options onto the fields
// that affect artifact contents — the correct cache/digest key.
// Observability settings are deliberately excluded: traced and untraced
// executions must produce byte-identical artifacts.
type OptionsKey struct {
	Quick      bool
	Congestion bool
	Machine    string
	Model      perfmodel.Model
}

// ArtifactKey projects the options onto their artifact-affecting fields.
// The model is canonicalized so "" and "roofline" share one cache slot.
func (o Options) ArtifactKey() OptionsKey {
	model := o.Model
	if model == "" {
		model = perfmodel.ModelRoofline
	}
	return OptionsKey{Quick: o.Quick, Congestion: o.Congestion, Machine: o.Machine, Model: model}
}

// Cell is one measured value with an optional paper reference.
type Cell struct {
	// Value is the measured (simulated) value, NaN when not applicable.
	Value float64
	// Paper is the published value; NaN when the paper gives none.
	Paper float64
	// Text overrides numeric formatting when non-empty (config cells).
	Text string
	// Format is the fmt verb for Value/Paper (default "%.2f").
	Format string
}

// Artifact is a completed experiment result: a table or figure's data.
type Artifact struct {
	ID      string
	Title   string
	Kind    Kind
	Columns []string
	// RowLabels name each row (usually a system or a node count).
	RowLabels []string
	// Cells is indexed [row][column-1] (the label is column 0).
	Cells [][]Cell
	// Notes carry caveats (substitutions, model-prediction flags).
	Notes []string
}

// format renders a single cell.
func (c Cell) format() string {
	if c.Text != "" {
		return c.Text
	}
	f := c.Format
	if f == "" {
		f = "%.2f"
	}
	if c.Value != c.Value { // NaN
		return "—"
	}
	return fmt.Sprintf(f, c.Value)
}

// formatWithPaper renders "measured (paper X, Δ%)" when a reference
// exists.
func (c Cell) formatWithPaper() string {
	s := c.format()
	if c.Text != "" || c.Paper != c.Paper || c.Paper == 0 {
		return s
	}
	f := c.Format
	if f == "" {
		f = "%.2f"
	}
	delta := (c.Value - c.Paper) / c.Paper * 100
	return fmt.Sprintf("%s (paper "+f+", %+.1f%%)", s, c.Paper, delta)
}

// Render produces an aligned plain-text table of the measured values.
func (a *Artifact) Render() string { return a.render(false) }

// RenderComparison produces the paper-vs-measured view used by
// EXPERIMENTS.md.
func (a *Artifact) RenderComparison() string { return a.render(true) }

func (a *Artifact) render(compare bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(a.ID), a.Title)
	rows := make([][]string, 0, len(a.Cells)+1)
	header := append([]string{""}, a.Columns...)
	rows = append(rows, header)
	for i, label := range a.RowLabels {
		row := []string{label}
		for _, c := range a.Cells[i] {
			if compare {
				row = append(row, c.formatWithPaper())
			} else {
				row = append(row, c.format())
			}
		}
		rows = append(rows, row)
	}
	// Column widths.
	width := make([]int, len(header))
	for _, row := range rows {
		for j, cell := range row {
			if j < len(width) && len(cell) > width[j] {
				width[j] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for j, cell := range row {
			pad := 0
			if j < len(width) {
				pad = width[j]
			}
			fmt.Fprintf(&b, "%-*s", pad+2, cell)
		}
		b.WriteString("\n")
	}
	for _, n := range a.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// MaxAbsDeviation reports the largest relative |measured-paper|/|paper|
// over cells that carry a paper reference, and how many such cells exist.
func (a *Artifact) MaxAbsDeviation() (worst float64, refCells int) {
	for _, row := range a.Cells {
		for _, c := range row {
			if c.Text != "" || c.Paper != c.Paper || c.Paper == 0 || c.Value != c.Value {
				continue
			}
			refCells++
			d := (c.Value - c.Paper) / c.Paper
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst, refCells
}

// registry of experiments, keyed by ID.
var registry = map[string]*Experiment{}

// register adds an experiment at package init. Registry keys are
// normalized to lower case so lookups through Get (which lowercases its
// argument) can reach every registration regardless of the ID's case.
func register(e *Experiment) *Experiment {
	key := strings.ToLower(e.ID)
	if _, dup := registry[key]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	registry[key] = e
	return e
}

// Get returns the experiment with the given ID (case-insensitive).
func Get(id string) (*Experiment, error) {
	e, ok := registry[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q (use List)", id)
	}
	return e, nil
}

// order defines the paper's artifact order.
var order = []string{
	"table1", "table2", "table3", "table4", "table5", "fig1", "fig2",
	"table6", "fig3", "table7", "table8", "fig4", "table9", "fig5", "table10",
}

// List returns all experiments in the paper's order.
func List() []*Experiment {
	var out []*Experiment
	seen := map[string]bool{}
	for _, id := range order {
		if e, ok := registry[id]; ok {
			out = append(out, e)
			seen[id] = true
		}
	}
	var rest []*Experiment
	for id, e := range registry {
		if !seen[id] {
			rest = append(rest, e)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	return append(out, rest...)
}
