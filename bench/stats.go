package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the samples at or below
// it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// blockSize is the op count of one latency block. The nearest-rank p99
// of 1,000 ops has exactly ten samples beyond it.
const blockSize = 1000

// tailLatency is the p99 of each run of blockSize consecutive ops, the
// median over those blocks. Ops past the last full block join it; a run
// shorter than one block is a single block.
func tailLatency(xs []float64) float64 {
	blocks := len(xs) / blockSize
	if blocks < 1 {
		return percentile(xs, 99)
	}
	p99s := make([]float64, blocks)
	for i := range p99s {
		end := (i + 1) * blockSize
		if i == blocks-1 {
			end = len(xs)
		}
		p99s[i] = percentile(xs[i*blockSize:end], 99)
	}
	return median(p99s)
}

// median is the middle value, or the mean of the two middle values, as
// Python's statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// paperError parses a stream of JSON artifacts (the program's -format
// json output) and returns the median and maximum of |sim − paper| /
// paper in percent over every cell with a non-zero paper value.
func paperError(stream []byte) (med, worst float64, cells int, err error) {
	type cell struct {
		Value *float64 `json:"value"`
		Paper *float64 `json:"paper"`
	}
	dec := json.NewDecoder(bytes.NewReader(stream))
	var errs []float64
	for {
		var art struct {
			Cells [][]cell `json:"cells"`
		}
		if err := dec.Decode(&art); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return 0, 0, 0, fmt.Errorf("artifact JSON: %w", err)
		}
		for _, row := range art.Cells {
			for _, c := range row {
				if c.Value != nil && c.Paper != nil && *c.Paper != 0 {
					errs = append(errs, 100*math.Abs(*c.Value-*c.Paper)/math.Abs(*c.Paper))
				}
			}
		}
	}
	for _, e := range errs {
		worst = max(worst, e)
	}
	return median(errs), worst, len(errs), nil
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the sample lines of a Prometheus text exposition.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				k, val, _ := strings.Cut(kv, "=")
				s.labels[k] = strings.Trim(val, `"`)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// promValue returns the value of the first unlabelled sample named name.
func promValue(samples []promSample, name string) float64 {
	for _, s := range samples {
		if s.name == name && len(s.labels) == 0 {
			return s.value
		}
	}
	return 0
}

// histogramQuantile estimates quantile q (0..1) of the histogram named
// name whose label key equals value, interpolating linearly inside the
// bucket that holds the target rank as Prometheus histogram_quantile
// does. An estimate in the +Inf bucket is the largest finite bound; an
// empty histogram yields 0.
func histogramQuantile(samples []promSample, name, key, value string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for _, s := range samples {
		if s.name != name+"_bucket" || s.labels[key] != value {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, s.value})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > prev {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		if !math.IsInf(b.le, 1) {
			lo = b.le
		}
		prev = b.cum
	}
	return lo
}

func underscore(s string) string { return strings.ReplaceAll(s, "-", "_") }
