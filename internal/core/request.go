package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"a64fxbench/internal/metrics"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/spec"
	"a64fxbench/internal/units"
)

// Request is the one serializable descriptor of an experiment execution.
// The CLI builds it from flags, the serve daemon decodes it from JSON,
// and both hand it to the same executors — so a curl request and a
// command line are provably the same object. Every exported field is
// plain data: a Request can be logged, hashed (Digest) and replayed.
// Normalization also resolves the target machine, which Options hands
// to the experiments.
//
// The zero value plus one id is a valid request: the full default run of
// that experiment.
type Request struct {
	// IDs names the experiments or extensions to execute, in output
	// order. run/trace/links take exactly one; sweep and counters accept
	// many. Ids are case-insensitive (normalized to lower case).
	IDs []string `json:"ids"`
	// Quick reduces simulated iteration counts (core.Options.Quick).
	Quick bool `json:"quick,omitempty"`
	// Congestion prices multi-node communication through the routed
	// contention model (core.Options.Congestion).
	Congestion bool `json:"congestion,omitempty"`
	// Model selects the compute-phase pricing model: "", "roofline" or
	// "ecm" (core.Options.Model). Normalization canonicalizes the empty
	// default to "roofline"; the model participates in Digest, so an
	// ECM request caches digest-distinct from the stock roofline one.
	Model string `json:"model,omitempty"`
	// Format selects the output encoding. Valid values depend on the
	// operation: run/sweep take text|chart|json|csv, trace takes
	// text|chrome|json, links text|json, counters text|json|csv.
	// Empty means text.
	Format string `json:"format,omitempty"`
	// Compare renders paper-vs-measured deltas beside each value
	// (text-format artifacts only).
	Compare bool `json:"compare,omitempty"`
	// PeriodNS is the virtual-time sampling period of the PMU counter
	// series in nanoseconds (counters operation only; 0 = the metrics
	// default).
	PeriodNS int64 `json:"period_ns,omitempty"`
	// Machine names the target machine for machine-parameterized ids
	// (the ext-machine suite). It must resolve in the spec registry —
	// one of the embedded Table-I systems, a `-specs DIR` load, or the
	// machine declared by Spec below. Empty means the default (A64FX).
	Machine string `json:"machine,omitempty"`
	// Spec carries a full machine spec by value (the same JSON shape as
	// a spec file, overlays included), so a serve client can run against
	// a what-if machine without any file on the server. Normalization
	// strictly parses and compiles it against the registry without
	// registering it: the machine exists for this request only, and a
	// name it shares with a registered machine must carry that
	// machine's digest. The canonical form participates in Digest, so a
	// custom-spec request is cacheable and digest-distinct from every
	// stock machine and from any other spec of the same name.
	Spec json.RawMessage `json:"spec,omitempty"`

	// machine is the compiled target machine Normalized resolved from
	// Machine and Spec; nil for the default.
	machine *spec.Machine
}

// DecodeRequest reads one JSON-encoded Request from r under strict
// rules: unknown fields are rejected (a typoed "quik" fails loudly
// instead of silently running the default), and trailing data after the
// object is an error. The decoded request is normalized and validated.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("request: %w", err)
	}
	if dec.More() {
		return Request{}, fmt.Errorf("request: trailing data after JSON object")
	}
	return req.Normalized()
}

// ParseRequest decodes a Request from raw JSON bytes (DecodeRequest on
// a byte slice).
func ParseRequest(data []byte) (Request, error) {
	return DecodeRequest(strings.NewReader(string(data)))
}

// UnknownIDError reports a request id that resolves to neither a paper
// experiment nor an extension. It carries the full valid-id list so
// callers (HTTP 400 bodies, CLI errors) can show what would have worked.
type UnknownIDError struct {
	ID    string
	Valid []string
}

func (e *UnknownIDError) Error() string {
	return fmt.Sprintf("unknown experiment %q (valid: %s)", e.ID, strings.Join(e.Valid, " "))
}

// ValidIDs lists every runnable id: the paper artifacts in paper order,
// then the extensions sorted by id.
func ValidIDs() []string {
	var ids []string
	for _, e := range List() {
		ids = append(ids, strings.ToLower(e.ID))
	}
	for _, e := range Extensions() {
		ids = append(ids, strings.ToLower(e.ID))
	}
	return ids
}

// lookupID resolves an id against both registries.
func lookupID(id string) error {
	if _, err := Get(id); err == nil {
		return nil
	}
	if _, err := GetExtension(id); err == nil {
		return nil
	}
	return &UnknownIDError{ID: id, Valid: ValidIDs()}
}

// Normalized returns the request in canonical form — ids trimmed and
// lower-cased, the model name canonicalized — and validates it: at
// least one id, every id known (an *UnknownIDError lists the valid set
// otherwise), the model parseable, the period non-negative. Two
// requests that normalize equal have equal Digests.
func (r Request) Normalized() (Request, error) {
	return r.normalized(true)
}

// NormalizedLenient is Normalized without the id-existence check:
// unknown ids stay in the list. The CLI's multi-id sweep path uses it
// so one typo surfaces as that experiment's per-result failure instead
// of aborting the other thirteen artifacts; the serve daemon always
// uses the strict form.
func (r Request) NormalizedLenient() (Request, error) {
	return r.normalized(false)
}

func (r Request) normalized(strictIDs bool) (Request, error) {
	out := r
	out.IDs = make([]string, 0, len(r.IDs))
	for _, id := range r.IDs {
		id = strings.ToLower(strings.TrimSpace(id))
		if id == "" {
			return Request{}, fmt.Errorf("request: empty experiment id")
		}
		if strictIDs {
			if err := lookupID(id); err != nil {
				return Request{}, err
			}
		}
		out.IDs = append(out.IDs, id)
	}
	if len(out.IDs) == 0 {
		return Request{}, fmt.Errorf("request: no experiment ids (valid: %s)",
			strings.Join(ValidIDs(), " "))
	}
	model, err := perfmodel.ParseModel(out.Model)
	if err != nil {
		return Request{}, fmt.Errorf("request: %w", err)
	}
	out.Model = string(model)
	if out.Format == "" {
		out.Format = "text"
	}
	if out.PeriodNS < 0 {
		return Request{}, fmt.Errorf("request: negative counter period %dns", out.PeriodNS)
	}
	out.machine = nil
	if len(out.Spec) > 0 {
		m, err := spec.Default.Compile(out.Spec)
		if err != nil {
			return Request{}, fmt.Errorf("request: %w", err)
		}
		if out.Machine != "" && out.Machine != m.Name() {
			return Request{}, fmt.Errorf("request: machine %q does not match inline spec machine %q",
				out.Machine, m.Name())
		}
		out.Machine = m.Name()
		// Canonical bytes so requests that differ only in JSON
		// whitespace or key order digest (and cache) identically.
		out.Spec = m.Spec.Canonical()
		out.machine = m
	} else if out.Machine != "" {
		m, ok := spec.Get(out.Machine)
		if !ok {
			return Request{}, fmt.Errorf("request: unknown machine %q (valid: %s)",
				out.Machine, strings.Join(spec.Names(), " "))
		}
		out.machine = m
	}
	return out, nil
}

// Options projects the normalized request onto the experiment options.
// The observation carriers (Trace, Counters, Telemetry) stay nil — they
// are owned by the operation executing the request (trace attaches a
// sink, counters a PMU config), not by the serializable descriptor.
func (r Request) Options() (Options, error) {
	model, err := perfmodel.ParseModel(r.Model)
	if err != nil {
		return Options{}, err
	}
	if r.machine == nil && (r.Machine != "" || len(r.Spec) > 0) {
		return Options{}, fmt.Errorf("request: machine %q is unresolved; normalize the request first", r.Machine)
	}
	return Options{Quick: r.Quick, Machine: r.machine,
		Instrumentation: simmpi.Instrumentation{Congestion: r.Congestion, Model: model}}, nil
}

// CounterConfig builds the PMU configuration the counters operation
// attaches (Options.Counters) from the request's sampling period.
func (r Request) CounterConfig() *metrics.Config {
	return &metrics.Config{Period: units.Duration(r.PeriodNS)}
}

// Digest is the content-addressed identity of a normalized request: the
// SHA-256 of a length-prefixed canonical encoding of every field. Two
// requests digest equal iff they execute identically and render
// identically, so the digest is the serve daemon's cache and
// singleflight key. Normalize first — Digest hashes fields as they are.
func (r Request) Digest() string {
	var b []byte
	str := func(s string) {
		b = binary.BigEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(len(r.IDs)))
	for _, id := range r.IDs {
		str(id)
	}
	var flags byte
	if r.Quick {
		flags |= 1
	}
	if r.Congestion {
		flags |= 2
	}
	if r.Compare {
		flags |= 4
	}
	b = append(b, flags)
	str(r.Format)
	b = binary.BigEndian.AppendUint64(b, uint64(r.PeriodNS))
	str(r.Machine)
	str(string(r.Spec))
	str(r.Model)
	return fmt.Sprintf("%x", sha256.Sum256(b))
}
