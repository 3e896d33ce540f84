package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Registry holds compiled machines by name. The Default registry is
// seeded with the five embedded Table-I machines at init, and `-specs
// DIR` extends it; it is the process's only machine registry. Inline
// request specs are compiled against it (Compile) but never added, so
// they live only as long as their request. Every method is
// lock-guarded, as serve handlers read it concurrently.
//
// Registration is idempotent by digest: adding the same spec twice
// returns the one registered Machine, while a same-name spec with
// different content is an error naming both sources, and so is
// compiling one. A registered name therefore always means one spec;
// caches still key artifacts by digest, because two inline specs may
// share a name.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Machine
	source map[string]string
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Machine{}, source: map[string]string{}}
}

// Default is the process-wide registry, seeded with the embedded specs.
var Default = NewRegistry()

// Add registers a compiled machine, recording where it came from
// ("embedded", "file:<path>", "api", ...).
func (r *Registry) Add(m *Machine, source string) (*Machine, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(m, source)
}

func (r *Registry) addLocked(m *Machine, source string) (*Machine, error) {
	if prev, err := r.registeredLocked(m); prev != nil || err != nil {
		return prev, err
	}
	r.byName[m.Name()] = m
	r.source[m.Name()] = source
	r.order = append(r.order, m.Name())
	return m, nil
}

// registeredLocked returns the machine registered under m's name (nil
// when there is none); a registered machine whose digest differs from
// m's is an error. r.mu must be held.
func (r *Registry) registeredLocked(m *Machine) (*Machine, error) {
	prev, ok := r.byName[m.Name()]
	if !ok || prev.Digest() == m.Digest() {
		return prev, nil
	}
	return nil, fmt.Errorf("spec: machine %q already registered from %s with a different spec (digest %.12s vs %.12s)",
		m.Name(), r.source[m.Name()], prev.Digest(), m.Digest())
}

// Compile strictly parses raw, resolves any overlay against the
// registry and compiles the result without registering it. A machine
// that takes a registered name must be that machine: same digest.
func (r *Registry) Compile(raw []byte) (*Machine, error) {
	s, err := Parse(raw)
	if err != nil {
		return nil, err
	}
	resolved, err := resolve(raw, s, r.Lookup, r.Names)
	if err != nil {
		return nil, err
	}
	m, err := resolved.Compile()
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, err := r.registeredLocked(m); err != nil {
		return nil, err
	}
	return m, nil
}

// AddBytes compiles raw (Compile) and registers the result.
func (r *Registry) AddBytes(raw []byte, source string) (*Machine, error) {
	m, err := r.Compile(raw)
	if err != nil {
		return nil, err
	}
	return r.Add(m, source)
}

// AddSpec registers an already-parsed spec (resolving overlays).
func (r *Registry) AddSpec(s *Spec, source string) (*Machine, error) {
	return r.AddBytes(s.Canonical(), source)
}

// Get returns the named machine.
func (r *Registry) Get(name string) (*Machine, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.byName[name]
	return m, ok
}

// Lookup returns the named machine's resolved spec, for overlay bases.
func (r *Registry) Lookup(name string) (*Spec, bool) {
	m, ok := r.Get(name)
	if !ok {
		return nil, false
	}
	return &m.Spec, true
}

// Source reports where the named machine was registered from.
func (r *Registry) Source(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.source[name]
}

// Names lists registered machine names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Machines lists registered machines in registration order.
func (r *Registry) Machines() []*Machine {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Machine, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name])
	}
	return out
}

// LoadDir loads every *.json machine spec in dir (sorted by file name)
// into the registry. Overlays may reference machines defined by other
// files in the same directory regardless of order: loading makes
// passes until no progress, then reports the first stuck file's error.
func (r *Registry) LoadDir(dir string) ([]*Machine, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var pending []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		pending = append(pending, filepath.Join(dir, e.Name()))
	}
	sort.Strings(pending)
	var loaded []*Machine
	for len(pending) > 0 {
		var next []string
		errs := map[string]error{}
		for _, path := range pending {
			raw, err := os.ReadFile(path)
			if err != nil {
				return loaded, fmt.Errorf("spec: %w", err)
			}
			m, err := r.AddBytes(raw, "file:"+path)
			if err != nil {
				next = append(next, path)
				errs[path] = err
				continue
			}
			loaded = append(loaded, m)
		}
		if len(next) == len(pending) {
			path := next[0]
			return loaded, fmt.Errorf("%s: %w", path, errs[path])
		}
		pending = next
	}
	return loaded, nil
}

// Package-level wrappers over the Default registry.

// Get returns the named machine from the default registry.
func Get(name string) (*Machine, bool) { return Default.Get(name) }

// Names lists the default registry's machines in registration order.
func Names() []string { return Default.Names() }

// Machines lists the default registry's machines.
func Machines() []*Machine { return Default.Machines() }

// LoadDir loads a spec directory into the default registry.
func LoadDir(dir string) ([]*Machine, error) { return Default.LoadDir(dir) }
