// Package spec defines the declarative machine descriptor format: a JSON
// document that carries everything `internal/arch` used to hard-code for
// the five Table-I systems — hardware capability (clocks, cores, memory
// domains, interconnect), the calibrated per-kernel efficiency tables,
// and the anchor measurements the calibration protocol fits against.
//
// The format follows the same strict-decoding discipline as
// core.DecodeRequest: unknown fields, bad units, and missing anchors are
// errors that name the offending field path and the valid set. Machines
// are data; the roofline/network models that consume them stay code
// (DESIGN.md §8).
//
// A spec file may instead be an overlay: `"base": "A64FX"` plus only the
// fields that differ (RFC 7386 merge-patch semantics), which is how
// what-if machines — "A64FX at 2.0 GHz", "double the CMG bandwidth" —
// are declared without repeating the whole descriptor.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Spec is the JSON shape of a machine descriptor. Quantity fields are
// human-readable unit strings ("210 GB/s", "8 GiB", "300 ns"); Compile
// parses and validates them into model types.
type Spec struct {
	// Name is the machine's identity; it becomes the arch.System ID.
	Name string `json:"name"`
	// Base, when non-empty, marks this spec as an overlay of another
	// machine: only the fields present here override the base.
	Base string `json:"base,omitempty"`
	// Description is the one-line platform summary.
	Description string `json:"description,omitempty"`
	// Processor and Microarch are Table-I metadata.
	Processor string `json:"processor,omitempty"`
	Microarch string `json:"microarch,omitempty"`
	// ClockGHz is the all-core processor clock in GHz.
	ClockGHz float64 `json:"clock_ghz,omitempty"`
	// CoresPerProcessor and ProcessorsPerNode multiply to cores/node.
	CoresPerProcessor int `json:"cores_per_processor,omitempty"`
	ProcessorsPerNode int `json:"processors_per_node,omitempty"`
	// ThreadsPerCore is the SMT description (informational).
	ThreadsPerCore string `json:"threads_per_core,omitempty"`
	// VectorBits is the SIMD width.
	VectorBits int `json:"vector_bits,omitempty"`
	// MaxNodes is the machine (or benchmark-accessible) node count.
	MaxNodes int `json:"max_nodes,omitempty"`
	// Node describes one node's capability.
	Node *NodeSpec `json:"node,omitempty"`
	// Fabric describes the interconnect.
	Fabric *FabricSpec `json:"fabric,omitempty"`
	// Efficiency maps kernel-class name → calibrated efficiency; the
	// valid key set is perfmodel.KernelClassNames.
	Efficiency map[string]Efficiency `json:"efficiency,omitempty"`
	// FastMathGain maps kernel-class name → multiplicative compute
	// gain under the aggressive compiler mode.
	FastMathGain map[string]float64 `json:"fast_math_gain,omitempty"`
	// Anchors are the declared measurements calibration fits against.
	Anchors *AnchorsSpec `json:"anchors,omitempty"`
}

// NodeSpec is the per-node capability section of a Spec.
type NodeSpec struct {
	// PeakFlops is the maximum node DP flop rate, e.g. "3379 GF/s".
	PeakFlops string `json:"peak_flops,omitempty"`
	// ScalarFlopsPerCore is the unvectorised per-core rate; when
	// omitted it defaults to 2 flops/cycle × clock.
	ScalarFlopsPerCore string `json:"scalar_flops_per_core,omitempty"`
	// Domains is the number of identical memory domains (CMGs on the
	// A64FX, sockets elsewhere); cores/node must divide evenly.
	Domains int `json:"domains,omitempty"`
	// DomainBandwidth is the saturated STREAM-like bandwidth of one
	// domain, e.g. "210 GB/s".
	DomainBandwidth string `json:"domain_bandwidth,omitempty"`
	// PerCoreBandwidth is the bandwidth one core draws alone.
	PerCoreBandwidth string `json:"per_core_bandwidth,omitempty"`
	// DomainCapacity is the memory attached to one domain, e.g. "8 GiB".
	DomainCapacity string `json:"domain_capacity,omitempty"`
	// L2PerDomain is the last-level cache per domain.
	L2PerDomain string `json:"l2_per_domain,omitempty"`
	// PerCallOverhead is the fixed cost per kernel invocation.
	PerCallOverhead string `json:"per_call_overhead,omitempty"`
	// L1Bandwidth and L2Bandwidth are the per-core cache bandwidths the
	// ECM model prices register↔L1 and L1↔L2 transfers at, e.g.
	// "140.8 GB/s". When omitted they default to 64 and 32 bytes/cycle
	// per core respectively (derived from the scalar flop rate). The
	// roofline model ignores them.
	L1Bandwidth string `json:"l1_bandwidth,omitempty"`
	L2Bandwidth string `json:"l2_bandwidth,omitempty"`
	// ECMCoreOverlap and ECMMemOverlap are the ECM composition knobs in
	// [0, 1]: the fraction of in-core execution that overlaps data
	// transfers (0 = the A64FX serial rule, 1 = the classic x86 rule)
	// and the fraction of the memory transfer phase hidden under the
	// upstream core+L1+L2 phases. Both default to 0 (fully additive).
	ECMCoreOverlap float64 `json:"ecm_core_overlap,omitempty"`
	ECMMemOverlap  float64 `json:"ecm_mem_overlap,omitempty"`
	// TurboBoost1 is the one-active-core clock boost factor (0 or ≥ 1;
	// 0 means no turbo, the A64FX case).
	TurboBoost1 float64 `json:"turbo_boost1,omitempty"`
	// TurboFlatCores is the active-core count up to which the full
	// boost holds.
	TurboFlatCores int `json:"turbo_flat_cores,omitempty"`
}

// FabricSpec selects and parameterises the interconnect model.
type FabricSpec struct {
	// Kind is one of the named Table-I fabrics — "tofud", "aries",
	// "fdr-infiniband", "edr-infiniband", "omnipath" — or "custom".
	Kind string `json:"kind"`
	// Name labels a custom fabric (diagnostics only).
	Name string `json:"name,omitempty"`
	// Topology ("fat-tree" or "torus"), NodesPerLeaf and Uplinks shape
	// a custom fabric; ignored for named kinds.
	Topology     string `json:"topology,omitempty"`
	NodesPerLeaf int    `json:"nodes_per_leaf,omitempty"`
	Uplinks      int    `json:"uplinks,omitempty"`
	// Pricing parameters of a custom fabric.
	SoftwareOverhead   string `json:"software_overhead,omitempty"`
	HopLatency         string `json:"hop_latency,omitempty"`
	LinkBandwidth      string `json:"link_bandwidth,omitempty"`
	InjectionBandwidth string `json:"injection_bandwidth,omitempty"`
}

// Efficiency is one kernel class's calibrated efficiency pair.
type Efficiency struct {
	// Compute is the fraction of vector peak achieved when compute
	// bound, in (0, 1].
	Compute float64 `json:"compute"`
	// Memory is the fraction of STREAM bandwidth achieved when memory
	// bound, in (0, 1].
	Memory float64 `json:"memory"`
}

// AnchorsSpec declares the measured (or model-committed) microbenchmark
// results that the calibration protocol fits the efficiency table
// against: full-node STREAM triad, the peak-flops kernel, and optionally
// the 8-byte inter-node one-way latency.
type AnchorsSpec struct {
	TriadBandwidth string `json:"triad_bandwidth"`
	PeakFlops      string `json:"peak_flops"`
	Latency        string `json:"latency,omitempty"`
}

// FieldError reports a rejected spec naming the offending JSON field
// path (dotted, e.g. "node.domain_bandwidth") and, where a closed set
// exists, the valid values.
type FieldError struct {
	// Path is the dotted JSON field path; empty for document-level
	// problems (e.g. the top level not being an object).
	Path string
	// Msg describes the problem, including the valid set when known.
	Msg string
}

func (e *FieldError) Error() string {
	if e.Path == "" {
		return "spec: " + e.Msg
	}
	return "spec: field " + e.Path + ": " + e.Msg
}

// fieldErrf builds a FieldError at path.
func fieldErrf(path, format string, args ...any) *FieldError {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Parse strictly decodes one machine spec from JSON bytes. Unknown
// fields anywhere in the document are errors naming the field path and
// the valid field set; type mismatches name the field that failed.
func Parse(data []byte) (*Spec, error) {
	var probe any
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("spec: invalid JSON: %w", err)
	}
	if _, ok := probe.(map[string]any); !ok {
		return nil, &FieldError{Msg: "top level must be a JSON object"}
	}
	if err := checkUnknownFields("", data, reflect.TypeOf(Spec{})); err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Field != "" {
			return nil, fieldErrf(te.Field, "cannot decode JSON %s into %s", te.Value, te.Type)
		}
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}

// checkUnknownFields walks raw JSON guided by the Go type it should
// decode into and rejects the first object key (in sorted order, for
// deterministic messages) that no struct field claims. Type mismatches
// are deliberately ignored here — the real decode reports those with
// its own field path.
func checkUnknownFields(path string, raw json.RawMessage, t reflect.Type) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Struct:
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil // null, or a type mismatch the decoder will name
		}
		fields := map[string]reflect.Type{}
		var valid []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name == "-" {
				continue
			}
			fields[name] = f.Type
			valid = append(valid, name)
		}
		sort.Strings(valid)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ft, ok := fields[k]
			if !ok {
				return fieldErrf(joinPath(path, k), "unknown field (valid: %s)", strings.Join(valid, " "))
			}
			if err := checkUnknownFields(joinPath(path, k), m[k], ft); err != nil {
				return err
			}
		}
	case reflect.Map:
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := checkUnknownFields(joinPath(path, k), m[k], t.Elem()); err != nil {
				return err
			}
		}
	}
	return nil
}

func joinPath(base, field string) string {
	if base == "" {
		return field
	}
	return base + "." + field
}

// Canonical returns the spec's canonical JSON encoding: compact, struct
// field order, map keys sorted — a deterministic byte form suitable for
// hashing and equality.
func (s *Spec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec holds only strings, numbers and maps of them; the
		// encoder cannot fail on it.
		panic("spec: canonical encoding failed: " + err.Error())
	}
	return b
}

// Digest returns the hex SHA-256 of the canonical encoding. Two specs
// share a digest iff they describe the same machine field-for-field.
func (s *Spec) Digest() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}
