package a64fxbench_test

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"a64fxbench"
)

// Example enumerates the machine models of the study.
func Example() {
	for _, id := range a64fxbench.SystemIDs() {
		sys, err := a64fxbench.GetSystem(id)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d cores/node, %d-bit vectors\n",
			sys.ID, sys.CoresPerNode(), sys.VectorBits)
	}
	// Output:
	// A64FX: 48 cores/node, 512-bit vectors
	// ARCHER: 24 cores/node, 256-bit vectors
	// Cirrus: 36 cores/node, 256-bit vectors
	// EPCC NGIO: 48 cores/node, 512-bit vectors
	// Fulhame: 64 cores/node, 128-bit vectors
}

// ExampleExperiments lists the paper's reproducible artifacts.
func ExampleExperiments() {
	fmt.Println(len(a64fxbench.Experiments()), "experiments")
	for _, e := range a64fxbench.Experiments()[:3] {
		fmt.Println(e.ID, "—", e.Title)
	}
	// Output:
	// 15 experiments
	// table1 — Compute node specifications
	// table2 — Compilers, compiler flags and libraries
	// table3 — Single node HPCG performance
}

// ExampleRunHPCG runs the headline benchmark on one simulated A64FX node.
func ExampleRunHPCG() {
	sys, err := a64fxbench.GetSystem(a64fxbench.A64FX)
	if err != nil {
		panic(err)
	}
	res, err := a64fxbench.RunHPCG(a64fxbench.HPCGConfig{
		System: sys, Nodes: 1, Iterations: 5,
	})
	if err != nil {
		panic(err)
	}
	// The simulation is deterministic, so the rating is stable; the
	// paper's measured value is 38.26 GFLOP/s.
	fmt.Printf("%d ranks, %.0f GFLOP/s\n", res.Procs, res.GFLOPs)
	// Output:
	// 48 ranks, 38 GFLOP/s
}

// ExampleRunNekbone shows the fast-math effect of the paper's Table VI.
func ExampleRunNekbone() {
	sys, _ := a64fxbench.GetSystem(a64fxbench.A64FX)
	plain, _ := a64fxbench.RunNekbone(a64fxbench.NekboneConfig{
		System: sys, Nodes: 1, Iterations: 10,
	})
	fast, _ := a64fxbench.RunNekbone(a64fxbench.NekboneConfig{
		System: sys, Nodes: 1, Iterations: 10, FastMath: true,
	})
	fmt.Printf("-Kfast speedup: %.1fx\n", fast.GFLOPs/plain.GFLOPs)
	// Output:
	// -Kfast speedup: 1.8x
}

// ExampleMinikabFitsMemory shows the Figure 1 memory ceiling.
func ExampleMinikabFitsMemory() {
	sys, _ := a64fxbench.GetSystem(a64fxbench.A64FX)
	full := a64fxbench.MinikabConfig{System: sys, Nodes: 2, RanksPerNode: 48}
	hybrid := a64fxbench.MinikabConfig{System: sys, Nodes: 2, RanksPerNode: 4, ThreadsPerRank: 12}
	fmt.Println("96 plain-MPI ranks fit:", a64fxbench.MinikabFitsMemory(full))
	fmt.Println("4×12 hybrid fits:     ", a64fxbench.MinikabFitsMemory(hybrid))
	// Output:
	// 96 plain-MPI ranks fit: false
	// 4×12 hybrid fits:      true
}

// ExampleGetExperiment regenerates a full artifact of the paper.
func ExampleGetExperiment() {
	exp, err := a64fxbench.GetExperiment("table8")
	if err != nil {
		panic(err)
	}
	art, err := exp.Run(a64fxbench.Options{})
	if err != nil {
		panic(err)
	}
	worst, cells := art.MaxAbsDeviation()
	fmt.Printf("%s: %d referenced cells, worst deviation %.0f%%\n", art.ID, cells, worst*100)
	// Output:
	// table8: 5 referenced cells, worst deviation 0%
}

// ExampleParseMachineSpec decodes a machine spec strictly: a misspelt
// field is an error that names its path.
func ExampleParseMachineSpec() {
	s, err := a64fxbench.ParseMachineSpec([]byte(`{"base":"A64FX","name":"A64FX-fat","node":{"domain_bandwidth":"300 GB/s"}}`))
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Name, "overlays", s.Base, "with", s.Node.DomainBandwidth, "per memory domain")
	_, err = a64fxbench.ParseMachineSpec([]byte(`{"base":"A64FX","name":"A64FX-fat","node":{"domain_bandwith":"300 GB/s"}}`))
	var fe *a64fxbench.SpecFieldError
	if errors.As(err, &fe) {
		fmt.Println("rejected:", fe.Path)
	}
	// Output:
	// A64FX-fat overlays A64FX with 300 GB/s per memory domain
	// rejected: node.domain_bandwith
}

// ExampleRegisterMachineSpec adds a what-if machine to the registry and
// runs a benchmark on it.
func ExampleRegisterMachineSpec() {
	s, err := a64fxbench.ParseMachineSpec([]byte(`{"base":"A64FX","name":"A64FX-fat","node":{"domain_bandwidth":"300 GB/s"}}`))
	if err != nil {
		panic(err)
	}
	if _, err := a64fxbench.RegisterMachineSpec(s); err != nil {
		panic(err)
	}
	sys, err := a64fxbench.GetSystem("A64FX-fat")
	if err != nil {
		panic(err)
	}
	res, err := a64fxbench.RunHPCG(a64fxbench.HPCGConfig{System: sys, Nodes: 1, Iterations: 5})
	if err != nil {
		panic(err)
	}
	// Stock A64FX rates 38 GFLOP/s: HPCG is bandwidth bound.
	fmt.Printf("%s: %d ranks, %.0f GFLOP/s\n", sys.ID, res.Procs, res.GFLOPs)
	// Output:
	// A64FX-fat: 48 ranks, 55 GFLOP/s
}

// ExampleLoadMachineSpecs loads a directory of spec files, the library
// form of the CLI's -specs flag.
func ExampleLoadMachineSpecs() {
	dir, err := os.MkdirTemp("", "specs")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	overlay := `{"base":"A64FX","name":"A64FX-slim","node":{"domain_bandwidth":"100 GB/s"}}`
	if err := os.WriteFile(filepath.Join(dir, "a64fx-slim.json"), []byte(overlay), 0o644); err != nil {
		panic(err)
	}
	machines, err := a64fxbench.LoadMachineSpecs(dir)
	if err != nil {
		panic(err)
	}
	for _, m := range machines {
		fmt.Printf("%s: %d cores/node\n", m.Name(), m.CoresPerNode())
	}
	// Output:
	// A64FX-slim: 48 cores/node
}

// ExampleNewServer serves experiments over HTTP. The first request for
// a run executes it and renders every format, so a repeat, or the same
// request in another format, is a cache hit.
func ExampleNewServer() {
	h := a64fxbench.NewServer(a64fxbench.ServerConfig{}).Handler()
	for _, format := range []string{"json", "json", "csv"} {
		body := fmt.Sprintf(`{"ids":["table1"],"quick":true,"format":%q}`, format)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/run", strings.NewReader(body)))
		fmt.Println(format, rec.Code, rec.Header().Get("X-Cache"))
	}
	// Output:
	// json 200 miss
	// json 200 hit
	// csv 200 hit
}
