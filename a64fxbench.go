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
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/serve"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/spec"
	"a64fxbench/internal/units"
)

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

// DeriveSystem returns a new system modelled on a registered one: a
// copy with its own memory domains and calibration tables, so mutate
// may adjust any field without touching the base. Nothing is
// registered; the system is a value the caller passes to the
// benchmarks. Use it for what-if studies (e.g. an A64FX with DDR4 in
// place of HBM2).
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
// plus any specs loaded or registered through this API) in
// registration order. Inline request specs are never registered.
func Machines() []*Machine { return spec.Machines() }

// RegisterMachineSpec resolves (overlays included), compiles and adds
// a machine spec to the machine registry, and returns it as a System;
// GetSystem and the -machine flag then find it by name for the life of
// the process. Registration is idempotent by content digest; a
// same-name spec with different content is an error.
func RegisterMachineSpec(s *MachineSpec) (*System, error) {
	m, err := spec.Default.AddSpec(s, "api")
	if err != nil {
		return nil, err
	}
	return arch.FromMachine(m), nil
}

// LoadMachineSpecs loads every *.json machine spec in dir (overlays may
// reference machines from other files in the same directory) into the
// machine registry — the library form of the CLI's -specs flag.
func LoadMachineSpecs(dir string) ([]*Machine, error) { return spec.LoadDir(dir) }

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

// TraceSink observes traced simulated jobs (see the trace support in
// every benchmark Config): it is called once per job, when the job
// finishes, with the job's report.
type TraceSink = simmpi.TraceSink

// JobReport is one simulated job's report: its label, makespan,
// per-rank results, link and counter accounting and, in the report a
// TraceSink receives, its phase-annotated timeline in Events.
type JobReport = simmpi.Report

// TraceEvent is one entry of a traced job's timeline.
type TraceEvent = simmpi.Event

// Timeline is a merged sequence of trace events in deterministic
// (start time, rank) order.
type Timeline = simmpi.Timeline

// Virtual PMU: every benchmark Config and Options carries an optional
// *CounterConfig; a non-nil value makes each simulated rank meter named
// counters (flops by kernel class, cache-level traffic, attributed
// stall time, messages, collective time) and sample them in virtual
// time. Counting never changes simulated results.
type (
	// CounterConfig enables the virtual PMU and sets its sampling
	// period. The zero value means the default period.
	CounterConfig = metrics.Config
	// JobCounters is a counted job's full PMU state: per-rank finals
	// and sampled series (JobReport.Counters).
	JobCounters = metrics.JobCounters
)

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

// ServerConfig tunes the daemon's execution concurrency and queue depth
// and sets its request logger.
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
