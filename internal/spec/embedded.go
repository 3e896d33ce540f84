package spec

import (
	"embed"
	"sync"
)

// The five Table-I machines ship as embedded spec files — the same
// format users load with -specs DIR. They seed the Default registry,
// which internal/arch reads; a neutrality test pins them bit-for-bit
// against the paper's values. Regenerate anchors with `go run ./internal/spec/gen`.
//
//go:embed specs/*.json
var specFS embed.FS

// embeddedFiles lists the specs in the paper's Table-I column order.
var embeddedFiles = []string{
	"specs/a64fx.json",
	"specs/archer.json",
	"specs/cirrus.json",
	"specs/ngio.json",
	"specs/fulhame.json",
}

var (
	embeddedOnce sync.Once
	embeddedMs   []*Machine
)

// Embedded returns the five Table-I machines, compiling them once. It
// panics on a malformed embedded spec: that is a build defect, caught
// by the package tests, never a runtime condition.
func Embedded() []*Machine {
	embeddedOnce.Do(func() {
		for _, path := range embeddedFiles {
			raw, err := specFS.ReadFile(path)
			if err != nil {
				panic("spec: embedded " + path + ": " + err.Error())
			}
			m, err := Default.AddBytes(raw, "embedded")
			if err != nil {
				panic("spec: embedded " + path + ": " + err.Error())
			}
			embeddedMs = append(embeddedMs, m)
		}
	})
	return append([]*Machine(nil), embeddedMs...)
}

func init() { Embedded() }
