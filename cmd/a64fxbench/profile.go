package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"a64fxbench"
	"a64fxbench/internal/arch"
	"a64fxbench/internal/micro"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// microCmd runs the model-validation microbenchmarks on one system (or
// all with an empty name).
func microCmd(sysName string) error {
	var systems []*arch.System
	if sysName == "" {
		systems = arch.All()
	} else {
		s, err := arch.Get(arch.ID(sysName))
		if err != nil {
			return err
		}
		systems = []*arch.System{s}
	}
	for _, sys := range systems {
		fmt.Printf("== %s ==\n", sys.ID)
		// STREAM sweep.
		var counts []int
		for c := 1; c <= sys.CoresPerNode(); c *= 2 {
			counts = append(counts, c)
		}
		if counts[len(counts)-1] != sys.CoresPerNode() {
			counts = append(counts, sys.CoresPerNode())
		}
		stream, err := micro.StreamTriad(sys, counts)
		if err != nil {
			return err
		}
		fmt.Printf("  STREAM triad:")
		for _, r := range stream {
			fmt.Printf("  %dc=%.0fGB/s", r.Cores, float64(r.Bandwidth)/1e9)
		}
		fmt.Printf("  (spec peak %.0f GB/s)\n", float64(sys.Node.PeakBandwidth())/1e9)
		// Ping-pong.
		pp, err := micro.PingPong(sys, []units.Bytes{0, 4 * units.KiB, units.MiB, 16 * units.MiB})
		if err != nil {
			return err
		}
		fmt.Printf("  ping-pong:   ")
		for _, r := range pp {
			if r.Bytes == 0 {
				fmt.Printf("  0B=%.2fµs", r.HalfRoundTrip.Seconds()*1e6)
			} else {
				fmt.Printf("  %v=%.2fGB/s", r.Bytes, float64(r.Bandwidth)/1e9)
			}
		}
		fmt.Println()
		// Allreduce sweep.
		maxN := 8
		if sys.MaxNodes < maxN {
			maxN = sys.MaxNodes
		}
		var nodeCounts []int
		for n := 1; n <= maxN; n *= 2 {
			nodeCounts = append(nodeCounts, n)
		}
		ar, err := micro.AllreduceSweep(sys, nodeCounts)
		if err != nil {
			return err
		}
		fmt.Printf("  allreduce 8B:")
		for _, r := range ar {
			fmt.Printf("  %dn=%.2fµs", r.Nodes, r.Time.Seconds()*1e6)
		}
		fmt.Println()
	}
	return nil
}

// profileCmd runs one benchmark on one system and writes the per-kernel-
// class time breakdown to w — the view the paper attributes to the
// Fujitsu profiler in its Figure 1 discussion.
func profileCmd(w io.Writer, bench, sysName string) error {
	sys, err := arch.Get(arch.ID(sysName))
	if err != nil {
		return err
	}
	var rep simmpi.Report
	switch bench {
	case "hpcg":
		res, err := a64fxbench.RunHPCG(a64fxbench.HPCGConfig{System: sys, Nodes: 1, Iterations: 10})
		if err != nil {
			return err
		}
		rep = res.Report
	case "minikab":
		res, err := a64fxbench.RunMinikab(a64fxbench.MinikabConfig{
			System: sys, Nodes: 1, RanksPerNode: min(sys.CoresPerNode(), 24), Iterations: 100,
		})
		if err != nil {
			return err
		}
		rep = res.Report
	case "nekbone":
		res, err := a64fxbench.RunNekbone(a64fxbench.NekboneConfig{System: sys, Nodes: 1, Iterations: 20})
		if err != nil {
			return err
		}
		rep = res.Report
	case "cosa":
		nodes := 1
		if sys.ID == arch.A64FX {
			nodes = 2
		}
		res, err := a64fxbench.RunCOSA(a64fxbench.COSAConfig{System: sys, Nodes: nodes})
		if err != nil {
			return err
		}
		rep = res.Report
	case "castep":
		res, err := a64fxbench.RunCASTEP(a64fxbench.CASTEPConfig{System: sys, Cycles: 3})
		if err != nil {
			return err
		}
		rep = res.Report
	case "opensbli":
		res, err := a64fxbench.RunOpenSBLI(a64fxbench.OpenSBLIConfig{System: sys, Nodes: 1})
		if err != nil {
			return err
		}
		rep = res.Report
	default:
		return fmt.Errorf("unknown benchmark %q (hpcg, minikab, nekbone, cosa, castep, opensbli)", bench)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s — simulated profile\n", bench, sys.ID)
	fmt.Fprintf(&b, "  makespan:   %.4f s\n", rep.Seconds())
	fmt.Fprintf(&b, "  rate:       %.2f GFLOP/s\n", rep.GFLOPs())
	fmt.Fprintf(&b, "  mean busy:  %.4f s   mean comm wait: %.4f s (%.1f%%)\n",
		rep.MeanBusy.Seconds(), rep.MeanWait.Seconds(),
		100*rep.MeanWait.Seconds()/(rep.MeanBusy.Seconds()+rep.MeanWait.Seconds()+1e-30))
	fmt.Fprintf(&b, "  messages:   %d (%v)\n", rep.TotalMsgs, rep.TotalBytesSent)

	// Aggregate class times across ranks, in rank and class order, so
	// every sum adds the same terms in the same order on every run.
	var classTotals [perfmodel.NumKernelClasses]float64
	var busyTotal float64
	for _, r := range rep.Ranks {
		for c, d := range r.Stats.ClassTime {
			classTotals[c] += d.Seconds()
			busyTotal += d.Seconds()
		}
	}
	type kv struct {
		class perfmodel.KernelClass
		sec   float64
	}
	var rows []kv
	for c, s := range classTotals {
		if s != 0 {
			rows = append(rows, kv{perfmodel.KernelClass(c), s})
		}
	}
	// Slowest class first; rows start in class order and the sort is
	// stable, so equal times keep class order.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].sec > rows[j].sec })
	b.WriteString("  kernel-class breakdown (all-rank CPU time):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "    %-16s %8.3f s  %5.1f%%\n", r.class, r.sec, 100*r.sec/busyTotal)
	}
	_, err = io.WriteString(w, b.String())
	return err
}
