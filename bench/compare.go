package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// comparison is one workload × metric of a parent (old) and change
// (new) results file.
type comparison struct {
	oldMed, oldQ1, oldQ3 float64
	newMed, newQ1, newQ3 float64
	wins, pairs          int // pairs the change won; ties count for neither side
	verdict              string
}

// compareMetric applies the rules of a claimed gain and of no
// regression. Runs pair up by position, so results files should hold
// runs that alternated between the two sides.
//
//   - improved: the change wins at least nine tenths of the pairs and
//     its median is better by more than the parent's quartile distance;
//   - regressed: the change's median is worse than the parent's by more
//     than bound (a share of the parent's median);
//   - unresolved: either side's quartile distance, as a share of its
//     median, exceeds bound, unless every change run beats every parent
//     run;
//   - unchanged: otherwise.
func compareMetric(old, new []float64, higherBetter bool, bound float64) comparison {
	c := comparison{oldMed: median(old), newMed: median(new)}
	c.oldQ1, c.oldQ3 = quartiles(old)
	c.newQ1, c.newQ3 = quartiles(new)
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	c.pairs = min(len(old), len(new))
	for i := 0; i < c.pairs; i++ {
		if better(new[i], old[i]) {
			c.wins++
		}
	}
	allBetter := len(old) > 0 && len(new) > 0
	for _, n := range new {
		for _, o := range old {
			allBetter = allBetter && better(n, o)
		}
	}
	worse := (c.newMed - c.oldMed) / c.oldMed
	if higherBetter {
		worse = -worse
	}
	spread := max(relSpread(c.oldQ1, c.oldQ3, c.oldMed), relSpread(c.newQ1, c.newQ3, c.newMed))
	switch {
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) &&
		better(c.newMed, c.oldMed) && math.Abs(c.newMed-c.oldMed) > c.oldQ3-c.oldQ1:
		c.verdict = "improved"
	case worse > bound:
		c.verdict = "regressed"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// compareFiles prints, for every workload in both results files and
// every end-to-end metric of BENCHMARK.json, each side's median and
// quartiles, the share of pairs the change won and the verdict.
func compareFiles(w io.Writer, specFile, oldPath, newPath string) error {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-16s %28s %28s %9s  %s\n", "workload", "metric",
		"old median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			ov, nv := runValues(old, wl.name, m.Name), runValues(cur, wl.name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			c := compareMetric(ov, nv, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-16s %-16s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %4d/%-4d  %s\n",
				wl.name, m.Name, c.oldMed, c.oldQ1, c.oldQ3, c.newMed, c.newQ1, c.newQ3,
				c.wins, c.pairs, c.verdict)
		}
	}
	return nil
}

// runValues lists one metric over a file's end-to-end runs of a
// workload, in run order.
func runValues(rf resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
