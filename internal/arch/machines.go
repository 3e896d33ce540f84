package arch

import (
	"fmt"

	"a64fxbench/internal/spec"
)

// The machine registry is spec.Default: the five Table-I systems are
// its embedded specs, and `-specs DIR` loads extend it. This package
// keeps no registry of its own — Get, MustGet and All read spec.Default
// through FromMachine, and derived systems (Derive) are plain values.

// FromMachine returns the System view of a compiled machine spec. The
// system shares the machine's memory domains and calibration tables,
// which are immutable once compiled.
func FromMachine(m *spec.Machine) *System {
	return &System{
		ID:                ID(m.Name()),
		Description:       m.Spec.Description,
		Processor:         m.Spec.Processor,
		Microarch:         m.Spec.Microarch,
		ClockGHz:          m.Spec.ClockGHz,
		CoresPerProcessor: m.Spec.CoresPerProcessor,
		ProcessorsPerNode: m.Spec.ProcessorsPerNode,
		ThreadsPerCore:    m.Spec.ThreadsPerCore,
		VectorBits:        m.Spec.VectorBits,
		MaxNodes:          m.Spec.MaxNodes,
		Node:              m.Node,
		NewFabric:         m.NewFabric,
		Eff:               m.Efficiency,
		FastMathGain:      m.FastMathGain,
	}
}

// Get returns the registered machine with the given ID as a System.
func Get(id ID) (*System, error) {
	m, ok := spec.Get(string(id))
	if !ok {
		return nil, fmt.Errorf("arch: unknown system %q", id)
	}
	return FromMachine(m), nil
}

// MustGet is Get for known-constant IDs; it panics on failure.
func MustGet(id ID) *System {
	s, err := Get(id)
	if err != nil {
		panic(err)
	}
	return s
}

// All returns every registered machine as a System, in registration
// order: the five Table-I systems in the paper's column order, then any
// machines loaded since.
func All() []*System {
	machines := spec.Machines()
	out := make([]*System, len(machines))
	for i, m := range machines {
		out[i] = FromMachine(m)
	}
	return out
}
