package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"a64fxbench/internal/micro"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/spec"
)

// machinesCmd dispatches the machine-spec subcommands:
//
//	machines list              registered machines and where they came from
//	machines show <name>       resolved canonical spec JSON
//	machines validate <path>.. strict-check spec files or directories
//	machines calibrate <name>  refit the efficiency table against the anchors
func machinesCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: a64fxbench machines list|show|validate|calibrate ...")
	}
	switch args[0] {
	case "list":
		return machinesList()
	case "show":
		if len(args) != 2 {
			return fmt.Errorf("usage: a64fxbench machines show <name>")
		}
		return machinesShow(args[1])
	case "validate":
		if len(args) < 2 {
			return fmt.Errorf("usage: a64fxbench machines validate <spec.json|dir> [...]")
		}
		return validateSpecPaths(args[1:])
	case "calibrate":
		if len(args) != 2 {
			return fmt.Errorf("usage: a64fxbench machines calibrate <name>")
		}
		return calibrateCmd(args[1])
	default:
		return fmt.Errorf("machines: unknown subcommand %q (want list, show, validate or calibrate)", args[0])
	}
}

func machinesList() error {
	fmt.Printf("%-12s %-14s %-14s %6s %6s  %s\n", "NAME", "SOURCE", "DIGEST", "CORES", "NODES", "DESCRIPTION")
	for _, m := range spec.Machines() {
		fmt.Printf("%-12s %-14s %-14.12s %6d %6d  %s\n",
			m.Name(), spec.Default.Source(m.Name()), m.Digest(),
			m.CoresPerNode(), m.Spec.MaxNodes, m.Spec.Description)
	}
	return nil
}

func machinesShow(name string) error {
	m, ok := spec.Get(name)
	if !ok {
		return fmt.Errorf("machines: unknown machine %q (valid: %s)", name, strings.Join(spec.Names(), " "))
	}
	var buf map[string]any
	if err := json.Unmarshal(m.Spec.Canonical(), &buf); err != nil {
		return err
	}
	out, err := json.MarshalIndent(buf, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// validateSpecPaths strict-checks machine spec files and directories
// against a fresh registry seeded with the embedded machines (so
// overlays of stock systems resolve). Each failure prints the first
// offending JSON field path; the exit status is non-zero if any spec
// fails.
func validateSpecPaths(paths []string) error {
	reg := spec.NewRegistry()
	for _, m := range spec.Embedded() {
		if _, err := reg.Add(m, "embedded"); err != nil {
			return err
		}
	}
	// Expand directories to their sorted *.json files.
	var files []string
	failures := 0
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			failures++
			fmt.Printf("  [FAIL] %-40s %v\n", path, err)
			continue
		}
		if !fi.IsDir() {
			files = append(files, path)
			continue
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			failures++
			fmt.Printf("  [FAIL] %-40s %v\n", path, err)
			continue
		}
		n := len(files)
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		if len(files) == n {
			failures++
			fmt.Printf("  [FAIL] %-40s no *.json spec files\n", path)
			continue
		}
		sort.Strings(files[n:])
	}
	// Multi-pass load so overlays may reference machines defined by
	// later files (mirrors Registry.LoadDir); files still failing once
	// no pass makes progress report their error.
	pending := files
	for len(pending) > 0 {
		var next []string
		for _, path := range pending {
			raw, err := os.ReadFile(path)
			var m *spec.Machine
			if err == nil {
				m, err = reg.AddBytes(raw, "file:"+path)
			}
			if err != nil {
				next = append(next, path)
				continue
			}
			fmt.Printf("  [ok  ] %-40s machine %q (digest %.12s)\n", path, m.Name(), m.Digest())
		}
		if len(next) == len(pending) {
			for _, path := range next {
				raw, err := os.ReadFile(path)
				if err == nil {
					_, err = reg.AddBytes(raw, "file:"+path)
				}
				failures++
				fmt.Printf("  [FAIL] %-40s %v\n", path, err)
			}
			break
		}
		pending = next
	}
	if failures > 0 {
		return fmt.Errorf("machines validate: %d spec(s) failed", failures)
	}
	return nil
}

// calibrateCmd refits a machine's efficiency table against its declared
// anchors and prints the two fitted scales, the anchor comparison, and
// the refit table beside the declared one. Non-zero exit when the fit
// moves a scale by more than 1% — the spec's table and anchors disagree.
func calibrateCmd(name string) error {
	m, ok := spec.Get(name)
	if !ok {
		return fmt.Errorf("calibrate: unknown machine %q (valid: %s)", name, strings.Join(spec.Names(), " "))
	}
	cal, err := micro.Calibrate(m)
	if err != nil {
		return err
	}
	fmt.Printf("calibration of %s (2 free parameters)\n", cal.Machine)
	fmt.Printf("  memory-efficiency scale:  %.6f\n", cal.MemoryScale)
	fmt.Printf("  compute-efficiency scale: %.6f\n", cal.ComputeScale)
	fmt.Printf("  STREAM triad:  model %8.1f GB/s   anchor %8.1f GB/s\n",
		float64(cal.TriadModel)/1e9, float64(cal.TriadAnchor)/1e9)
	fmt.Printf("  peak flops:    model %8.1f GF/s   anchor %8.1f GF/s\n",
		float64(cal.PeakModel)/1e9, float64(cal.PeakAnchor)/1e9)
	if cal.LatencyAnchor > 0 {
		fmt.Printf("  8B latency:    model %8.3f µs     anchor %8.3f µs   (consistency check, not fitted)\n",
			cal.LatencyModel.Seconds()*1e6, cal.LatencyAnchor.Seconds()*1e6)
	}
	fmt.Printf("\n  %-16s %-22s %-22s\n", "kernel class", "declared (comp/mem)", "refit (comp/mem)")
	var classes []string
	for k := range cal.Eff {
		classes = append(classes, k.String())
	}
	sort.Strings(classes)
	for _, cn := range classes {
		k, _ := perfmodel.ParseKernelClass(cn)
		d, r := m.Efficiency[k], cal.Eff[k]
		fmt.Printf("  %-16s %.4f / %.4f        %.4f / %.4f\n", cn, d.Compute, d.Memory, r.Compute, r.Memory)
	}
	if e := cal.MaxScaleError(); e > 0.01 {
		return fmt.Errorf("calibrate: declared table deviates %.2f%% from the anchors (tolerance 1%%)", e*100)
	}
	fmt.Println("\n  declared table reproduces the anchors to within 1%")
	return nil
}

// loadSpecs loads a machine-spec directory (the -specs flag, or the
// A64FXBENCH_SPECS environment variable when the flag is unset) into
// the machine registry.
func loadSpecs(dir string) error {
	if dir == "" {
		return nil
	}
	_, err := spec.LoadDir(dir)
	return err
}
