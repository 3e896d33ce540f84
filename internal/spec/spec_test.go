package spec

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEmbeddedRoundTrip: every embedded spec survives a canonical
// encode → strict parse → compile cycle with an identical digest, so
// the canonical form really is a fixed point of the decoder.
func TestEmbeddedRoundTrip(t *testing.T) {
	t.Parallel()
	for _, m := range Embedded() {
		raw := m.Spec.Canonical()
		s, err := Parse(raw)
		if err != nil {
			t.Fatalf("%s: canonical form does not re-parse: %v", m.Name(), err)
		}
		if !bytes.Equal(s.Canonical(), raw) {
			t.Errorf("%s: canonical encoding is not a fixed point", m.Name())
		}
		m2, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: canonical form does not re-compile: %v", m.Name(), err)
		}
		if m2.Digest() != m.Digest() {
			t.Errorf("%s: digest drifted across round trip: %s vs %s", m.Name(), m2.Digest(), m.Digest())
		}
	}
}

// TestFieldErrors pins the error contract: rejections name the dotted
// field path and, where a closed set exists, the valid values.
func TestFieldErrors(t *testing.T) {
	t.Parallel()
	base, _ := Get("A64FX")
	canon := string(base.Spec.Canonical())
	cases := []struct {
		name string
		raw  string
		want []string // substrings of the error
	}{
		{"not json", "{", []string{"invalid JSON"}},
		{"not an object", "[1,2]", []string{"top level must be a JSON object"}},
		{"unknown top-level field", `{"name":"X","quik":true}`,
			[]string{"field quik", "unknown field", "valid:", "clock_ghz"}},
		{"unknown nested field", `{"name":"X","node":{"bandwidht":"1 GB/s"}}`,
			[]string{"field node.bandwidht", "unknown field", "domain_bandwidth"}},
		{"type mismatch", `{"name":"X","clock_ghz":"fast"}`,
			[]string{"field clock_ghz", "cannot decode JSON string"}},
		{"bad unit", strings.Replace(canon, `"210 GB/s"`, `"210 GBps"`, 1),
			[]string{"field node.domain_bandwidth", `bad unit "GBps"`, "B/s MB/s GB/s TB/s"}},
		{"bad quantity shape", strings.Replace(canon, `"210 GB/s"`, `"fast"`, 1),
			[]string{"field node.domain_bandwidth", `want "<value> <unit>"`}},
		{"missing anchors", strings.Replace(canon,
			`"anchors":{"triad_bandwidth":"548.3407379969277 GB/s","peak_flops":"1.8922153904048358 TF/s","latency":"1.021 us"}`,
			`"anchors":{"triad_bandwidth":"548 GB/s","peak_flops":""}`, 1),
			[]string{"anchors.peak_flops"}},
		{"bad efficiency key", strings.Replace(canon, `"vecop"`, `"vectorop"`, 1),
			[]string{"efficiency.vectorop", "vecop"}},
		{"bad fabric kind", strings.Replace(canon, `"kind":"tofud"`, `"kind":"ethernet"`, 1),
			[]string{"fabric.kind", "tofud", "custom"}},
		{"efficiency out of range", strings.Replace(canon, `{"compute":0.05,"memory":0.653}`, `{"compute":1.7,"memory":0.653}`, 1),
			[]string{"efficiency.vecop"}},
		{"negative l1 bandwidth", strings.Replace(canon, `"l1_bandwidth":"140.8 GB/s"`, `"l1_bandwidth":"-140.8 GB/s"`, 1),
			[]string{"field node.l1_bandwidth", "cache bandwidth"}},
		{"absurd l2 bandwidth", strings.Replace(canon, `"l2_bandwidth":"70.4 GB/s"`, `"l2_bandwidth":"9000 TB/s"`, 1),
			[]string{"field node.l2_bandwidth", "cache bandwidth"}},
		{"overlap out of range", strings.Replace(canon, `"ecm_mem_overlap":0.4`, `"ecm_mem_overlap":1.5`, 1),
			[]string{"field node.ecm_mem_overlap", "overlap fraction must be in [0, 1]"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, err := Parse([]byte(tc.raw))
			if err == nil {
				_, err = s.Compile()
			}
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
}

// TestFieldErrorType: decoder rejections are *FieldError with the path
// machine-readable, not just prose.
func TestFieldErrorType(t *testing.T) {
	t.Parallel()
	_, err := Parse([]byte(`{"name":"X","node":{"bandwidht":1}}`))
	var fe *FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FieldError, got %T: %v", err, err)
	}
	if fe.Path != "node.bandwidht" {
		t.Errorf("Path = %q, want node.bandwidht", fe.Path)
	}
}

// TestOverlay: merge-patch semantics against a registered base.
func TestOverlay(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	for _, m := range Embedded() {
		if _, err := reg.Add(m, "embedded"); err != nil {
			t.Fatal(err)
		}
	}
	m, err := reg.AddBytes([]byte(`{
		"base": "A64FX",
		"name": "A64FX-2.0GHz",
		"description": "what-if: downclocked",
		"clock_ghz": 2.0
	}`), "test")
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.ClockGHz != 2.0 {
		t.Errorf("overlay clock = %v, want 2.0", m.Spec.ClockGHz)
	}
	base, _ := reg.Get("A64FX")
	if m.Spec.Node.DomainBandwidth != base.Spec.Node.DomainBandwidth {
		t.Error("unpatched field did not inherit from the base")
	}
	if m.Spec.Base != "" {
		t.Error("resolved overlay must not retain its base marker")
	}

	if _, err := reg.AddBytes([]byte(`{"base":"NoSuch","name":"X"}`), "test"); err == nil ||
		!strings.Contains(err.Error(), "A64FX") {
		t.Errorf("unknown base should list valid machines, got %v", err)
	}
	if _, err := reg.AddBytes([]byte(`{"base":"A64FX","clock_ghz":2.0}`), "test"); err == nil ||
		!strings.Contains(err.Error(), "new name") {
		t.Errorf("overlay keeping the base name must be rejected, got %v", err)
	}
}

// TestRegistryIdempotence: same spec registers once; a same-name spec
// with different content is an error naming both sources.
func TestRegistryIdempotence(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	a := Embedded()[0]
	m1, err := reg.Add(a, "one")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := reg.Add(a, "two")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("re-adding the same machine must return the registered instance")
	}
	s := a.Spec // copy
	s.Description = "different"
	conflicting, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add(conflicting, "three"); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Errorf("conflicting same-name spec should error, got %v", err)
	}

	// Compile holds a spec to the same rule without registering it.
	if _, err := reg.Compile(conflicting.Spec.Canonical()); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Errorf("compiling a conflicting same-name spec should error, got %v", err)
	}
	if m, err := reg.Compile(a.Spec.Canonical()); err != nil || m.Digest() != a.Digest() {
		t.Errorf("compiling the registered spec = %v, %v; want its digest", m, err)
	}
	fresh, err := reg.Compile([]byte(`{"base":"A64FX","name":"Compiled-only","clock_ghz":1.9}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(fresh.Name()); ok || len(reg.Names()) != 1 {
		t.Errorf("Compile registered %q: registry holds %v", fresh.Name(), reg.Names())
	}
}

// TestLoadDir: files load in sorted order, and an overlay may reference
// a machine defined by a file that sorts after it.
func TestLoadDir(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// "aa" is an overlay of the machine defined in "zz".
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	zz, _ := Get("A64FX")
	s := zz.Spec
	s.Name = "LoadDirBase"
	write("zz.json", string(s.Canonical()))
	write("aa.json", `{"base":"LoadDirBase","name":"LoadDirOverlay","clock_ghz":1.8}`)
	write("ignore.txt", "not a spec")

	reg := NewRegistry()
	loaded, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d machines, want 2", len(loaded))
	}
	if m, ok := reg.Get("LoadDirOverlay"); !ok || m.Spec.ClockGHz != 1.8 {
		t.Error("cross-file overlay did not resolve")
	}

	write("bad.json", `{"name":"Bad","clock_ghz":"fast"}`)
	if _, err := NewRegistry().LoadDir(dir); err == nil ||
		!strings.Contains(err.Error(), "clock_ghz") {
		t.Errorf("stuck file's field error should surface, got %v", err)
	}
}

// TestQuantityFormatRoundTrip: the Format helpers emit strings the
// parser maps back to the exact same value (the gen tool depends on
// this for anchor regeneration).
func TestQuantityFormatRoundTrip(t *testing.T) {
	t.Parallel()
	for _, m := range Embedded() {
		s := m.Spec
		s.Name = "RT-" + s.Name
		a := *s.Anchors
		a.TriadBandwidth = FormatByteRate(m.Anchors.TriadBandwidth)
		a.PeakFlops = FormatFlopRate(m.Anchors.PeakFlops)
		a.Latency = FormatDuration(m.Anchors.Latency)
		s.Anchors = &a
		m2, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if m2.Anchors.TriadBandwidth != m.Anchors.TriadBandwidth ||
			m2.Anchors.PeakFlops != m.Anchors.PeakFlops ||
			m2.Anchors.Latency != m.Anchors.Latency {
			t.Errorf("%s: anchors did not round-trip: %+v vs %+v", s.Name, m2.Anchors, m.Anchors)
		}
	}
}
