package spec

import (
	"sort"
	"strings"
	"unicode"

	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
)

// Machine is a compiled, validated spec: the hardware capability and
// calibration tables in the model's native types, which internal/arch
// reads as a System. A Machine is immutable once built.
type Machine struct {
	// Spec is the resolved source descriptor (no overlay indirection).
	Spec Spec
	// Node is the per-node capability fed to the roofline.
	Node perfmodel.NodeCapability
	// NewFabric constructs the interconnect for a job's node count.
	NewFabric func(nodes int) *netmodel.Fabric
	// Efficiency and FastMathGain are the calibration tables keyed by
	// kernel class. Treated as immutable once published.
	Efficiency   map[perfmodel.KernelClass]perfmodel.Efficiency
	FastMathGain map[perfmodel.KernelClass]float64
	// Anchors are the declared calibration measurements.
	Anchors Anchors

	digest string
}

// Anchors are a Machine's declared microbenchmark measurements in model
// types. Latency is zero when undeclared.
type Anchors struct {
	TriadBandwidth units.ByteRate
	PeakFlops      units.FlopRate
	Latency        units.Duration
}

// Name returns the machine's identity.
func (m *Machine) Name() string { return m.Spec.Name }

// Digest returns the spec's canonical SHA-256, computed at compile time.
func (m *Machine) Digest() string { return m.digest }

// CoresPerNode reports the user-visible cores per node.
func (m *Machine) CoresPerNode() int {
	return m.Spec.CoresPerProcessor * m.Spec.ProcessorsPerNode
}

// fabricKinds is the closed set of named interconnects, in display order.
var fabricKinds = []string{"tofud", "aries", "fdr-infiniband", "edr-infiniband", "omnipath", "custom"}

// Sanity ceilings on the count fields. These exist so a hostile or
// corrupted spec cannot make Compile allocate per-domain or per-core
// structures of absurd size (the decoder must stay cheap on arbitrary
// input — the fuzz target depends on it); they sit far above any
// machine in the format's reach (Fugaku is 158,976 nodes).
const (
	maxCoresPerProcessor = 1 << 12 // 4096
	maxProcessorsPerNode = 64
	maxVectorBits        = 1 << 16
	maxMaxNodes          = 1 << 24 // 16.7M nodes
	// maxCacheBandwidth caps the per-core L1/L2 bandwidths the ECM
	// model accepts: 100 TB/s per core sits two orders of magnitude
	// above any cache port width in the format's reach.
	maxCacheBandwidth = units.ByteRate(100e12)
)

// Compile validates a resolved spec and builds the Machine. Every
// rejection is a FieldError naming the dotted field path; checks run in
// field order so the first offending field is deterministic.
func (s *Spec) Compile() (*Machine, error) {
	if err := validName(s.Name); err != nil {
		return nil, err
	}
	if s.Base != "" {
		return nil, fieldErrf("base", "unresolved overlay of %q: resolve against a registry before compiling", s.Base)
	}
	if s.ClockGHz <= 0 {
		return nil, fieldErrf("clock_ghz", "required: all-core clock in GHz, > 0")
	}
	if s.CoresPerProcessor < 1 || s.CoresPerProcessor > maxCoresPerProcessor {
		return nil, fieldErrf("cores_per_processor", "required: core count in 1..%d", maxCoresPerProcessor)
	}
	if s.ProcessorsPerNode < 1 || s.ProcessorsPerNode > maxProcessorsPerNode {
		return nil, fieldErrf("processors_per_node", "required: processor count in 1..%d", maxProcessorsPerNode)
	}
	if s.VectorBits < 1 || s.VectorBits > maxVectorBits {
		return nil, fieldErrf("vector_bits", "required: SIMD width in bits, 1..%d", maxVectorBits)
	}
	if s.MaxNodes < 1 || s.MaxNodes > maxMaxNodes {
		return nil, fieldErrf("max_nodes", "required: node count in 1..%d", maxMaxNodes)
	}

	m := &Machine{Spec: *s}
	if m.Spec.ThreadsPerCore == "" {
		m.Spec.ThreadsPerCore = "1"
	}
	node, err := s.compileNode()
	if err != nil {
		return nil, err
	}
	m.Node = node
	if m.NewFabric, err = s.compileFabric(); err != nil {
		return nil, err
	}
	if m.Efficiency, err = s.compileEfficiency(); err != nil {
		return nil, err
	}
	if m.FastMathGain, err = s.compileFastMath(); err != nil {
		return nil, err
	}
	if m.Anchors, err = s.compileAnchors(); err != nil {
		return nil, err
	}
	m.digest = m.Spec.Digest()
	return m, nil
}

func validName(name string) error {
	if name == "" {
		return fieldErrf("name", "required: the machine's identity")
	}
	if len(name) > 64 {
		return fieldErrf("name", "too long (%d bytes, max 64)", len(name))
	}
	if strings.TrimSpace(name) != name {
		return fieldErrf("name", "must not have leading or trailing whitespace")
	}
	for _, r := range name {
		if unicode.IsControl(r) {
			return fieldErrf("name", "must not contain control characters")
		}
	}
	return nil
}

func (s *Spec) compileNode() (perfmodel.NodeCapability, error) {
	var zero perfmodel.NodeCapability
	n := s.Node
	if n == nil {
		return zero, fieldErrf("node", "required: per-node capability section")
	}
	cores := s.CoresPerProcessor * s.ProcessorsPerNode
	peak, err := parseFlopRate("node.peak_flops", n.PeakFlops)
	if err != nil {
		return zero, err
	}
	if peak <= 0 {
		return zero, fieldErrf("node.peak_flops", "must be > 0")
	}
	scalar := units.FlopRate(2 * s.ClockGHz * 1e9)
	if n.ScalarFlopsPerCore != "" {
		if scalar, err = parseFlopRate("node.scalar_flops_per_core", n.ScalarFlopsPerCore); err != nil {
			return zero, err
		}
	}
	if n.Domains < 1 {
		return zero, fieldErrf("node.domains", "required: memory-domain count ≥ 1")
	}
	if cores%n.Domains != 0 {
		return zero, fieldErrf("node.domains", "%d cores/node do not divide evenly into %d domains", cores, n.Domains)
	}
	domBW, err := parseByteRate("node.domain_bandwidth", n.DomainBandwidth)
	if err != nil {
		return zero, err
	}
	coreBW, err := parseByteRate("node.per_core_bandwidth", n.PerCoreBandwidth)
	if err != nil {
		return zero, err
	}
	capacity, err := parseSize("node.domain_capacity", n.DomainCapacity)
	if err != nil {
		return zero, err
	}
	l2, err := parseSize("node.l2_per_domain", n.L2PerDomain)
	if err != nil {
		return zero, err
	}
	overhead, err := parseDuration("node.per_call_overhead", n.PerCallOverhead)
	if err != nil {
		return zero, err
	}
	if domBW <= 0 || coreBW <= 0 {
		return zero, fieldErrf("node.domain_bandwidth", "bandwidths must be > 0")
	}
	// The ECM fields are optional: zero values select the model's
	// defaults (port-width cache bandwidths, fully additive overlap).
	var l1bw, l2bw units.ByteRate
	if n.L1Bandwidth != "" {
		if l1bw, err = parseByteRate("node.l1_bandwidth", n.L1Bandwidth); err != nil {
			return zero, err
		}
		if l1bw <= 0 || l1bw > maxCacheBandwidth {
			return zero, fieldErrf("node.l1_bandwidth", "per-core cache bandwidth must be in (0, %s]", FormatByteRate(maxCacheBandwidth))
		}
	}
	if n.L2Bandwidth != "" {
		if l2bw, err = parseByteRate("node.l2_bandwidth", n.L2Bandwidth); err != nil {
			return zero, err
		}
		if l2bw <= 0 || l2bw > maxCacheBandwidth {
			return zero, fieldErrf("node.l2_bandwidth", "per-core cache bandwidth must be in (0, %s]", FormatByteRate(maxCacheBandwidth))
		}
	}
	if !(n.ECMCoreOverlap >= 0 && n.ECMCoreOverlap <= 1) {
		return zero, fieldErrf("node.ecm_core_overlap", "overlap fraction must be in [0, 1], got %g", n.ECMCoreOverlap)
	}
	if !(n.ECMMemOverlap >= 0 && n.ECMMemOverlap <= 1) {
		return zero, fieldErrf("node.ecm_mem_overlap", "overlap fraction must be in [0, 1], got %g", n.ECMMemOverlap)
	}
	if capacity <= 0 || l2 <= 0 {
		return zero, fieldErrf("node.domain_capacity", "capacities must be > 0")
	}
	if n.TurboBoost1 != 0 && n.TurboBoost1 < 1 {
		return zero, fieldErrf("node.turbo_boost1", "must be 0 (no turbo) or ≥ 1, got %g", n.TurboBoost1)
	}
	if n.TurboFlatCores < 0 || n.TurboFlatCores > cores {
		return zero, fieldErrf("node.turbo_flat_cores", "must be in 0..%d, got %d", cores, n.TurboFlatCores)
	}
	domains := make([]perfmodel.MemoryDomain, n.Domains)
	for i := range domains {
		domains[i] = perfmodel.MemoryDomain{
			Cores:            cores / n.Domains,
			PeakBandwidth:    domBW,
			PerCoreBandwidth: coreBW,
			Capacity:         capacity,
		}
	}
	return perfmodel.NodeCapability{
		Name:               s.Name,
		Cores:              cores,
		PeakFlops:          peak,
		ScalarFlopsPerCore: scalar,
		Domains:            domains,
		L2PerDomain:        l2,
		PerCallOverhead:    overhead,
		TurboBoost1:        n.TurboBoost1,
		TurboFlatCores:     n.TurboFlatCores,
		L1BandwidthPerCore: l1bw,
		L2BandwidthPerCore: l2bw,
		ECMCoreOverlap:     n.ECMCoreOverlap,
		ECMMemOverlap:      n.ECMMemOverlap,
	}, nil
}

func (s *Spec) compileFabric() (func(int) *netmodel.Fabric, error) {
	f := s.Fabric
	if f == nil {
		return nil, fieldErrf("fabric", "required: interconnect section (kind one of: %s)", strings.Join(fabricKinds, " "))
	}
	if f.Kind != "custom" {
		if f.Topology != "" || f.NodesPerLeaf != 0 || f.Uplinks != 0 || f.Name != "" ||
			f.SoftwareOverhead != "" || f.HopLatency != "" || f.LinkBandwidth != "" || f.InjectionBandwidth != "" {
			return nil, fieldErrf("fabric.kind", "parameters beyond kind are only valid with kind %q", "custom")
		}
	}
	switch f.Kind {
	case "tofud":
		return netmodel.NewTofuD, nil
	case "aries":
		return func(int) *netmodel.Fabric { return netmodel.NewAries() }, nil
	case "fdr-infiniband":
		return func(int) *netmodel.Fabric { return netmodel.NewFDRInfiniBand() }, nil
	case "edr-infiniband":
		return func(int) *netmodel.Fabric { return netmodel.NewEDRInfiniBand() }, nil
	case "omnipath":
		return func(int) *netmodel.Fabric { return netmodel.NewOmniPath() }, nil
	case "custom":
		return s.compileCustomFabric()
	case "":
		return nil, fieldErrf("fabric.kind", "required (valid: %s)", strings.Join(fabricKinds, " "))
	default:
		return nil, fieldErrf("fabric.kind", "unknown kind %q (valid: %s)", f.Kind, strings.Join(fabricKinds, " "))
	}
}

func (s *Spec) compileCustomFabric() (func(int) *netmodel.Fabric, error) {
	f := s.Fabric
	name := f.Name
	if name == "" {
		name = "custom"
	}
	sw, err := parseDuration("fabric.software_overhead", f.SoftwareOverhead)
	if err != nil {
		return nil, err
	}
	hop, err := parseDuration("fabric.hop_latency", f.HopLatency)
	if err != nil {
		return nil, err
	}
	link, err := parseByteRate("fabric.link_bandwidth", f.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	inj, err := parseByteRate("fabric.injection_bandwidth", f.InjectionBandwidth)
	if err != nil {
		return nil, err
	}
	if link <= 0 || inj <= 0 {
		return nil, fieldErrf("fabric.link_bandwidth", "bandwidths must be > 0")
	}
	price := func(t topo.Topology) *netmodel.Fabric {
		return &netmodel.Fabric{
			Name:               name,
			Topo:               t,
			SoftwareOverhead:   sw,
			HopLatency:         hop,
			LinkBandwidth:      link,
			InjectionBandwidth: inj,
		}
	}
	switch f.Topology {
	case "fat-tree":
		if f.NodesPerLeaf < 2 {
			return nil, fieldErrf("fabric.nodes_per_leaf", "fat-tree needs ≥ 2 nodes per leaf switch, got %d", f.NodesPerLeaf)
		}
		if f.Uplinks < 0 {
			return nil, fieldErrf("fabric.uplinks", "must be ≥ 0 (0 = non-blocking), got %d", f.Uplinks)
		}
		ft := &topo.FatTree{NodesPerLeaf: f.NodesPerLeaf, Uplinks: f.Uplinks}
		return func(int) *netmodel.Fabric { return price(ft) }, nil
	case "torus":
		// Sized per job like TofuD: a 5-dim torus grown to cover the
		// node count.
		if f.NodesPerLeaf != 0 || f.Uplinks != 0 {
			return nil, fieldErrf("fabric.nodes_per_leaf", "only valid with topology %q", "fat-tree")
		}
		return func(nodes int) *netmodel.Fabric { return price(topo.NewTofuD(nodes)) }, nil
	case "":
		return nil, fieldErrf("fabric.topology", "required for a custom fabric (valid: fat-tree torus)")
	default:
		return nil, fieldErrf("fabric.topology", "unknown topology %q (valid: fat-tree torus)", f.Topology)
	}
}

func (s *Spec) compileEfficiency() (map[perfmodel.KernelClass]perfmodel.Efficiency, error) {
	valid := strings.Join(perfmodel.KernelClassNames(), " ")
	if len(s.Efficiency) == 0 {
		return nil, fieldErrf("efficiency", "required: per-kernel-class efficiency table (valid classes: %s)", valid)
	}
	out := make(map[perfmodel.KernelClass]perfmodel.Efficiency, len(s.Efficiency))
	for _, name := range sortedKeys(s.Efficiency) {
		class, ok := perfmodel.ParseKernelClass(name)
		if !ok {
			return nil, fieldErrf("efficiency."+name, "unknown kernel class (valid: %s)", valid)
		}
		e := s.Efficiency[name]
		if !(perfmodel.Efficiency{Compute: e.Compute, Memory: e.Memory}).Valid() {
			return nil, fieldErrf("efficiency."+name, "compute and memory must be in (0, 1], got {%g %g}", e.Compute, e.Memory)
		}
		out[class] = perfmodel.Efficiency{Compute: e.Compute, Memory: e.Memory}
	}
	return out, nil
}

func (s *Spec) compileFastMath() (map[perfmodel.KernelClass]float64, error) {
	valid := strings.Join(perfmodel.KernelClassNames(), " ")
	out := make(map[perfmodel.KernelClass]float64, len(s.FastMathGain))
	for _, name := range sortedKeys(s.FastMathGain) {
		class, ok := perfmodel.ParseKernelClass(name)
		if !ok {
			return nil, fieldErrf("fast_math_gain."+name, "unknown kernel class (valid: %s)", valid)
		}
		g := s.FastMathGain[name]
		if g <= 0 {
			return nil, fieldErrf("fast_math_gain."+name, "gain must be > 0, got %g", g)
		}
		out[class] = g
	}
	return out, nil
}

func (s *Spec) compileAnchors() (Anchors, error) {
	var zero Anchors
	a := s.Anchors
	if a == nil {
		return zero, fieldErrf("anchors", "required: declared calibration measurements (triad_bandwidth, peak_flops)")
	}
	triad, err := parseByteRate("anchors.triad_bandwidth", a.TriadBandwidth)
	if err != nil {
		return zero, err
	}
	peak, err := parseFlopRate("anchors.peak_flops", a.PeakFlops)
	if err != nil {
		return zero, err
	}
	if triad <= 0 || peak <= 0 {
		return zero, fieldErrf("anchors.triad_bandwidth", "anchors must be > 0")
	}
	out := Anchors{TriadBandwidth: triad, PeakFlops: peak}
	if a.Latency != "" {
		if out.Latency, err = parseDuration("anchors.latency", a.Latency); err != nil {
			return zero, err
		}
	}
	return out, nil
}

// sortedKeys returns a map's keys sorted, for deterministic first-error
// selection and iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
