// Package a64fxbench is the public API of the A64FX benchmarking-study
// reproduction: a deterministic performance-simulation framework that
// re-creates the measurement campaign of Jackson et al., "Investigating
// Applications on the A64FX" (IEEE CLUSTER 2020), entirely in Go.
//
// The package exposes three layers:
//
//   - Machine models: the five benchmarked systems (A64FX, ARCHER,
//     Cirrus, EPCC NGIO, Fulhame) with their Table I hardware
//     capabilities, interconnects, and calibrated kernel efficiencies.
//     See Systems and GetSystem.
//
//   - Benchmarks: runnable, metered versions of HPCG, minikab, Nekbone,
//     COSA, CASTEP and OpenSBLI. Each has a Config describing the
//     paper's setup and returns achieved rates or runtimes on the
//     simulated machine. See RunHPCG and friends.
//
//   - Experiments: every table and figure of the paper's evaluation as a
//     one-call artifact with paper-vs-measured comparison. See
//     Experiments, GetExperiment.
//
// A minimal session:
//
//	sys, _ := a64fxbench.GetSystem(a64fxbench.A64FX)
//	res, _ := a64fxbench.RunHPCG(a64fxbench.HPCGConfig{System: sys, Nodes: 1})
//	fmt.Printf("HPCG: %.2f GFLOP/s\n", res.GFLOPs)
//
//	exp, _ := a64fxbench.GetExperiment("table3")
//	art, _ := exp.Run(a64fxbench.Options{Quick: true})
//	fmt.Println(art.RenderComparison())
package a64fxbench

import (
	"io"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/castep"
	"a64fxbench/internal/core"
	"a64fxbench/internal/cosa"
	"a64fxbench/internal/hpcg"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/micro"
	"a64fxbench/internal/minikab"
	"a64fxbench/internal/nekbone"
	"a64fxbench/internal/opensbli"
	"a64fxbench/internal/paper"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/serve"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/spec"
	"a64fxbench/internal/units"
)

// Citation identifies the reproduced paper.
type Citation = paper.Citation

// PaperSource returns the full citation of the reproduced study.
func PaperSource() Citation { return paper.Source() }

// Quantity types used throughout the machine models.
type (
	// Bytes is a byte count (memory sizes, message sizes).
	Bytes = units.Bytes
	// ByteRate is a bandwidth in bytes per second.
	ByteRate = units.ByteRate
	// FlopRate is a floating-point rate in FLOP per second.
	FlopRate = units.FlopRate
)

// Common quantity constants.
const (
	MiB       = units.MiB
	GiB       = units.GiB
	GBPerSec  = units.GBPerSec
	TBPerSec  = units.TBPerSec
	GFlopsPer = units.GFlopPerSec
)

// SystemID names one of the five benchmarked systems.
type SystemID = arch.ID

// The five systems of the study.
const (
	A64FX   = arch.A64FX
	ARCHER  = arch.ARCHER
	Cirrus  = arch.Cirrus
	NGIO    = arch.NGIO
	Fulhame = arch.Fulhame
)

// System is a complete machine description: node capability, node count
// and interconnect.
type System = arch.System

// Systems returns every modelled system in the paper's column order.
func Systems() []*System { return arch.All() }

// GetSystem looks a system up by ID.
func GetSystem(id SystemID) (*System, error) { return arch.Get(id) }

// SystemIDs lists the five IDs in the paper's order.
func SystemIDs() []SystemID { return arch.IDs() }

// DeriveSystem registers a new system modelled on an existing one,
// inheriting its calibration; mutate may adjust any hardware field. Use
// it for what-if studies (e.g. an A64FX with DDR4 in place of HBM2).
func DeriveSystem(base SystemID, newID SystemID, mutate func(*System)) (*System, error) {
	return arch.Derive(base, newID, mutate)
}

// Machine specs: every system is data — a JSON descriptor carrying the
// Table-I hardware capability, the calibrated per-kernel efficiency
// table and the anchor measurements the calibration protocol fits
// against. The five embedded specs are the source of the stock systems;
// user specs (files or JSON by value) register through the same path.
type (
	// MachineSpec is the JSON shape of a machine descriptor; quantity
	// fields are unit strings ("210 GB/s", "8 GiB", "300 ns").
	MachineSpec = spec.Spec
	// Machine is a compiled, validated spec ready to register.
	Machine = spec.Machine
	// SpecFieldError is a rejected spec naming the offending JSON field
	// path and the valid set.
	SpecFieldError = spec.FieldError
	// Calibration is the result of refitting a machine's efficiency
	// table (two free parameters) against its declared anchors.
	Calibration = micro.Calibration
)

// ParseMachineSpec strictly decodes a machine spec: unknown fields, bad
// units and missing anchors are errors naming the field path.
func ParseMachineSpec(data []byte) (*MachineSpec, error) { return spec.Parse(data) }

// Machines lists every registered machine (the embedded Table-I five
// plus any loaded or inline-registered specs) in registration order.
func Machines() []*Machine { return spec.Machines() }

// GetMachine looks a registered machine up by name.
func GetMachine(name string) (*Machine, bool) { return spec.Get(name) }

// RegisterMachineSpec resolves (overlays included), compiles and
// registers a machine spec, making it a runnable System. Registration
// is idempotent by content digest; a same-name spec with different
// content is an error.
func RegisterMachineSpec(s *MachineSpec) (*System, error) {
	m, err := spec.Default.AddSpec(s, "api")
	if err != nil {
		return nil, err
	}
	return arch.RegisterMachine(m)
}

// LoadMachineSpecs loads every *.json machine spec in dir (overlays may
// reference machines from other files in the same directory) and
// registers each as a runnable System — the library form of the CLI's
// -specs flag.
func LoadMachineSpecs(dir string) ([]*Machine, error) {
	machines, err := spec.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, m := range machines {
		if _, err := arch.RegisterMachine(m); err != nil {
			return nil, err
		}
	}
	return machines, nil
}

// Calibrate refits a machine's efficiency table against its declared
// anchor measurements, reducing the fit to two free parameters (a
// memory- and a compute-efficiency scale). Self-consistent specs — the
// embedded five — come back with both scales at 1.0.
func Calibrate(m *Machine) (*Calibration, error) { return micro.Calibrate(m) }

// Toolchain is one row of the paper's Table II.
type Toolchain = arch.Toolchain

// Toolchains returns the paper's Table II rows.
func Toolchains() []Toolchain { return arch.Toolchains() }

// Experiment is one reproducible table or figure of the paper.
type Experiment = core.Experiment

// Artifact is a completed experiment result.
type Artifact = core.Artifact

// Options tunes experiment execution: Quick for smoke runs, Machine for
// machine-parameterized experiments, and the embedded Instrumentation —
// Trace to stream every simulated job's event timeline into a
// TraceSink, Counters to meter every job with the virtual PMU,
// Congestion and Model to change how jobs are priced. Observability
// settings never change artifact contents.
type Options = core.Options

// OptionsKey is the comparable projection of Options onto the fields
// that affect artifact contents — the correct cache or digest key.
type OptionsKey = core.OptionsKey

// Model selects the compute-phase pricing model: the calibrated
// roofline default or the ECM memory-hierarchy model with explicit
// per-level transfer phases. The model changes simulated results — ECM
// artifacts are digest-distinct from roofline ones (Options.Model and
// every benchmark Config accept either).
type Model = perfmodel.Model

// The available pricing models. ParseModel maps the CLI spellings.
const (
	ModelRoofline = perfmodel.ModelRoofline
	ModelECM      = perfmodel.ModelECM
)

// ParseModel resolves a CLI model name ("roofline", "ecm" or "" for
// the default) to a Model.
func ParseModel(s string) (Model, error) { return perfmodel.ParseModel(s) }

// TraceSink receives the phase-annotated event stream of traced
// simulated jobs (see the trace support in every benchmark Config).
type TraceSink = simmpi.TraceSink

// TraceEvent is one entry of a traced job's timeline.
type TraceEvent = simmpi.Event

// Timeline is a merged sequence of trace events in deterministic
// (start time, rank) order.
type Timeline = simmpi.Timeline

// MemorySink is a TraceSink that buffers the stream for later analysis
// (Chrome export, communication matrices, critical paths — see
// internal/obs through the a64fxbench trace command).
type MemorySink = simmpi.MemorySink

// Virtual PMU: every benchmark Config and Options carries an optional
// *CounterConfig; a non-nil value makes each simulated rank meter named
// counters (flops by kernel class, cache-level traffic, attributed
// stall time, per-peer messages, collective time) and sample them in
// virtual time. Counting never changes simulated results.
type (
	// CounterConfig enables and tunes the virtual PMU (sampling period,
	// series length bound). The zero value means the defaults.
	CounterConfig = metrics.Config
	// JobCounters is a counted job's full PMU state: per-rank finals,
	// sampled series and per-peer traffic (simmpi.Report.Counters).
	JobCounters = metrics.JobCounters
	// CounterSnapshot is the regression sentinel's unit: a canonical,
	// diffable set of named metrics from one run (see the a64fxbench
	// counters and diff commands).
	CounterSnapshot = metrics.Snapshot
	// CounterDiffOptions sets the sentinel's per-kind tolerance rules.
	CounterDiffOptions = metrics.DiffOptions
	// CounterDiffResult reports a snapshot comparison; Failed gates.
	CounterDiffResult = metrics.DiffResult
)

// DiffCounterSnapshots compares two snapshots under the tolerance
// rules: Time metrics may grow by TimeTol, Rate metrics may drop by
// RateTol, Work metrics must match within WorkTol (default exactly).
func DiffCounterSnapshots(old, new *CounterSnapshot, opt CounterDiffOptions) *CounterDiffResult {
	return metrics.Diff(old, new, opt)
}

// LoadCounterSnapshot reads a snapshot written by Snapshot.WriteJSON
// (the a64fxbench counters -format=json output).
func LoadCounterSnapshot(path string) (*CounterSnapshot, error) {
	return metrics.LoadSnapshot(path)
}

// Instrumentation is the one set of per-run settings — trace sink,
// congestion pricing, virtual PMU, pricing model, telemetry span — that
// Options and every benchmark Config embed and hand unchanged to each
// simulated job.
type Instrumentation = simmpi.Instrumentation

// Request is the unified, serializable experiment-execution descriptor:
// what the CLI builds from flags and the serve daemon decodes from a
// JSON body. Normalize (or decode) before hashing; Digest is the
// content-addressed cache and singleflight key.
type Request = core.Request

// UnknownIDError reports a request id that resolves to neither a paper
// experiment nor an extension, carrying the full valid-id list.
type UnknownIDError = core.UnknownIDError

// DecodeRequest strictly decodes one JSON Request from r: unknown
// fields and trailing data are rejected, ids and model validated, the
// result normalized.
func DecodeRequest(r io.Reader) (Request, error) { return core.DecodeRequest(r) }

// ParseRequest is DecodeRequest over raw bytes.
func ParseRequest(data []byte) (Request, error) { return core.ParseRequest(data) }

// ValidRequestIDs lists every runnable id: paper artifacts in paper
// order, then extensions sorted by id.
func ValidRequestIDs() []string { return core.ValidIDs() }

// RegisterExtension adds a custom ablation experiment to the extension
// registry at run time; it then runs through the CLI (`ext`, `run`) and
// the serve daemon like any built-in.
func RegisterExtension(e *Experiment) error { return core.RegisterExtension(e) }

// NewServer builds the sweep-as-a-service HTTP daemon (`a64fxbench
// serve`): POST /v1/run, /v1/sweep, /v1/trace, /v1/counters and
// /v1/links over Request bodies, GET /v1/machines, /v1/healthz and
// /metrics. Mount ServerHandler on any http server.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// Server is the daemon; Handler() is its mountable http.Handler.
type Server = serve.Server

// ServerConfig tunes the daemon's concurrency, queue depth and response
// cache.
type ServerConfig = serve.Config

// Experiments lists every table and figure of the paper's evaluation in
// order.
func Experiments() []*Experiment { return core.List() }

// GetExperiment looks an experiment up by ID, e.g. "table3" or "fig4".
func GetExperiment(id string) (*Experiment, error) { return core.Get(id) }

// Extensions lists the ablation experiments that go beyond the paper
// (interconnect swap, noise sensitivity, stencil code-generation study).
func Extensions() []*Experiment { return core.Extensions() }

// GetExtension looks an ablation experiment up by ID, e.g. "ext-network".
func GetExtension(id string) (*Experiment, error) { return core.GetExtension(id) }

// HPCG benchmark (Tables III and IV).
type (
	// HPCGConfig configures an HPCG run.
	HPCGConfig = hpcg.Config
	// HPCGResult is the HPCG rating.
	HPCGResult = hpcg.Result
)

// RunHPCG executes the metered HPCG benchmark.
func RunHPCG(cfg HPCGConfig) (HPCGResult, error) { return hpcg.Run(cfg) }

// Minikab benchmark (Table V, Figures 1 and 2).
type (
	// MinikabConfig configures a minikab run.
	MinikabConfig = minikab.Config
	// MinikabResult is the minikab outcome.
	MinikabResult = minikab.Result
)

// RunMinikab executes the metered minikab CG solve.
func RunMinikab(cfg MinikabConfig) (MinikabResult, error) { return minikab.Run(cfg) }

// MinikabMemoryPerNode estimates the per-node memory a minikab
// configuration needs (matrix share, solver vectors, replicated setup).
func MinikabMemoryPerNode(cfg MinikabConfig) Bytes { return minikab.MemoryPerNode(cfg) }

// MinikabFitsMemory reports whether a configuration fits node memory —
// the constraint behind the paper's Figure 1.
func MinikabFitsMemory(cfg MinikabConfig) bool { return minikab.FitsMemory(cfg) }

// Nekbone benchmark (Table VI, Figure 3, Table VII).
type (
	// NekboneConfig configures a Nekbone run.
	NekboneConfig = nekbone.Config
	// NekboneResult is the Nekbone outcome.
	NekboneResult = nekbone.Result
)

// RunNekbone executes the metered Nekbone weak-scaling benchmark.
func RunNekbone(cfg NekboneConfig) (NekboneResult, error) { return nekbone.Run(cfg) }

// COSA benchmark (Table VIII, Figure 4).
type (
	// COSAConfig configures a COSA run.
	COSAConfig = cosa.Config
	// COSAResult is the COSA outcome.
	COSAResult = cosa.Result
)

// RunCOSA executes the metered COSA strong-scaling benchmark.
func RunCOSA(cfg COSAConfig) (COSAResult, error) { return cosa.Run(cfg) }

// CASTEP benchmark (Table IX, Figure 5).
type (
	// CASTEPConfig configures a CASTEP run.
	CASTEPConfig = castep.Config
	// CASTEPResult is the CASTEP outcome.
	CASTEPResult = castep.Result
)

// RunCASTEP executes the metered CASTEP TiN benchmark.
func RunCASTEP(cfg CASTEPConfig) (CASTEPResult, error) { return castep.Run(cfg) }

// OpenSBLI benchmark (Table X).
type (
	// OpenSBLIConfig configures an OpenSBLI run.
	OpenSBLIConfig = opensbli.Config
	// OpenSBLIResult is the OpenSBLI outcome.
	OpenSBLIResult = opensbli.Result
)

// RunOpenSBLI executes the metered OpenSBLI Taylor-Green benchmark.
func RunOpenSBLI(cfg OpenSBLIConfig) (OpenSBLIResult, error) { return opensbli.Run(cfg) }
