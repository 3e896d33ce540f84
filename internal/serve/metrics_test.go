package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// unescapeLabel inverts escapeLabel — used to round-trip adversarial
// label values through the exposition.
func unescapeLabel(v string) string {
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			switch v[i+1] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default:
				sb.WriteByte(v[i])
				sb.WriteByte(v[i+1])
			}
			i++
			continue
		}
		sb.WriteByte(v[i])
	}
	return sb.String()
}

func TestEscapeLabelRoundTrip(t *testing.T) {
	t.Parallel()
	cases := []string{
		"",
		"plain",
		`back\slash`,
		`quote"inside`,
		"new\nline",
		`all\three"of` + "\nthem",
		`trailing\`,
		"\n\n",
		`already\\escaped`,
	}
	for _, v := range cases {
		esc := escapeLabel(v)
		if strings.ContainsRune(esc, '\n') {
			t.Errorf("escapeLabel(%q) = %q still contains a raw newline", v, esc)
		}
		if got := unescapeLabel(esc); got != v {
			t.Errorf("round trip of %q: escaped %q, unescaped back to %q", v, esc, got)
		}
	}
}

// expositionLine is one parsed sample from the Prometheus text format.
type expositionLine struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition is a strict little parser for the subset of the
// Prometheus text format WritePrometheus emits. It fails the test on
// anything malformed, so it doubles as a well-formedness check.
func parseExposition(t *testing.T, text string) (samples []expositionLine, help, typ map[string]string, order []string) {
	t.Helper()
	help = map[string]string{}
	typ = map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if _, dup := help[name]; dup {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			help[name] = line
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: TYPE without kind: %q", ln+1, line)
			}
			if _, dup := typ[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		s := expositionLine{labels: map[string]string{}}
		body := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			s.name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			for _, pair := range splitLabels(t, line[i+1:j]) {
				k, v, found := strings.Cut(pair, "=")
				if !found || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				s.labels[k] = unescapeLabel(v[1 : len(v)-1])
			}
			body = strings.TrimSpace(line[j+1:])
		} else {
			var found bool
			s.name, body, found = strings.Cut(line, " ")
			if !found {
				t.Fatalf("line %d: sample without value: %q", ln+1, line)
			}
		}
		if _, err := fmt.Sscanf(body, "%g", &s.value); err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, body, err)
		}
		if base := baseName(s.name); len(order) == 0 || order[len(order)-1] != base {
			order = append(order, base)
		}
		samples = append(samples, s)
	}
	return samples, help, typ, order
}

// splitLabels splits `a="x",b="y"` on commas that are outside quoted
// values (escaped quotes inside values must not end the value).
func splitLabels(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote && c == '\\' && i+1 < len(s):
			cur.WriteByte(c)
			cur.WriteByte(s[i+1])
			i++
			continue
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteByte(c)
	}
	if inQuote {
		t.Fatalf("unterminated quote in label set %q", s)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// baseName maps a sample name to the metric name HELP/TYPE declare it
// under: histogram series append _bucket/_sum/_count to the base.
func baseName(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			return base
		}
	}
	return name
}

// populatedMetrics builds a Metrics with deterministic pseudo-random
// traffic across adversarial endpoint names, status codes and stages.
func populatedMetrics(t *testing.T, seed int64) *Metrics {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := newMetrics()
	m.queueCapacity = 8
	endpoints := []string{
		"/v1/run", "/v1/sweep", `/v1/od"d`, `/v1/back\slash`, "/v1/new\nline",
	}
	codes := []int{200, 400, 429, 500}
	for i := 0; i < 500; i++ {
		ep := endpoints[rng.Intn(len(endpoints))]
		code := codes[rng.Intn(len(codes))]
		// Span four orders of magnitude so observations land across the
		// whole bucket ladder, including +Inf.
		d := time.Duration(rng.ExpFloat64() * float64(rng.Intn(4)+1) * float64(10*time.Millisecond))
		m.Observe(ep, code, d)
	}
	stages := []string{"decode", "cache-lookup", "singleflight-wait", "engine-execute", "render", `st"age`}
	for i := 0; i < 500; i++ {
		st := stages[rng.Intn(len(stages))]
		d := time.Duration(rng.ExpFloat64() * float64(rng.Intn(6)+1) * float64(100*time.Microsecond))
		m.ObserveStage(st, d)
	}
	m.CacheHit()
	m.CacheMiss()
	m.Coalesced()
	return m
}

func exposition(t *testing.T, m *Metrics) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPrometheusLabelEscaping feeds endpoint and stage names containing
// every character the exposition format escapes and asserts they
// round-trip through a parse of the rendered output.
func TestPrometheusLabelEscaping(t *testing.T) {
	t.Parallel()
	m := populatedMetrics(t, 7)
	samples, _, _, _ := parseExposition(t, exposition(t, m))
	wantEndpoints := map[string]bool{`/v1/od"d`: false, `/v1/back\slash`: false, "/v1/new\nline": false}
	wantStages := map[string]bool{`st"age`: false}
	for _, s := range samples {
		if ep, ok := s.labels["endpoint"]; ok {
			if _, tracked := wantEndpoints[ep]; tracked {
				wantEndpoints[ep] = true
			}
		}
		if st, ok := s.labels["stage"]; ok {
			if _, tracked := wantStages[st]; tracked {
				wantStages[st] = true
			}
		}
	}
	for ep, seen := range wantEndpoints {
		if !seen {
			t.Errorf("endpoint %q did not survive the exposition round trip", ep)
		}
	}
	for st, seen := range wantStages {
		if !seen {
			t.Errorf("stage %q did not survive the exposition round trip", st)
		}
	}
}

// TestPrometheusHelpTypeOrdering asserts every sample belongs to a
// metric family that declared # HELP and # TYPE, and that each family's
// samples form one contiguous block (Prometheus requires all samples of
// a metric to be grouped under its metadata).
func TestPrometheusHelpTypeOrdering(t *testing.T) {
	t.Parallel()
	m := populatedMetrics(t, 11)
	samples, help, typ, order := parseExposition(t, exposition(t, m))
	if len(samples) == 0 {
		t.Fatal("no samples rendered")
	}
	for _, s := range samples {
		base := baseName(s.name)
		if _, ok := help[base]; !ok {
			t.Errorf("sample %s has no # HELP %s", s.name, base)
		}
		kind, ok := typ[base]
		if !ok {
			t.Errorf("sample %s has no # TYPE %s", s.name, base)
			continue
		}
		if s.name != base && kind != "histogram" {
			t.Errorf("suffixed sample %s declared under non-histogram type %q", s.name, kind)
		}
	}
	seen := map[string]bool{}
	for _, base := range order {
		if seen[base] {
			t.Errorf("metric family %s is split into non-contiguous blocks", base)
		}
		seen[base] = true
	}
	for name := range help {
		if _, ok := typ[name]; !ok {
			t.Errorf("# HELP %s has no matching # TYPE", name)
		}
	}
}

// TestPrometheusHistogramMonotonic asserts, for every histogram series
// in the exposition, that cumulative bucket counts never decrease with
// increasing le, that the +Inf bucket equals _count, and that _sum and
// _count agree with the in-memory histogram.
func TestPrometheusHistogramMonotonic(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		m := populatedMetrics(t, seed)
		samples, _, typ, _ := parseExposition(t, exposition(t, m))

		type series struct {
			buckets []expositionLine // in emission order
			sum     float64
			count   float64
			hasInf  bool
			infVal  float64
		}
		families := map[string]*series{} // base name + label identity
		keyOf := func(s expositionLine) string {
			base := baseName(s.name)
			lbl := ""
			for _, k := range []string{"endpoint", "stage"} {
				if v, ok := s.labels[k]; ok {
					lbl += k + "=" + v + ";"
				}
			}
			return base + "{" + lbl + "}"
		}
		for _, s := range samples {
			base := baseName(s.name)
			if typ[base] != "histogram" {
				continue
			}
			key := keyOf(s)
			fam := families[key]
			if fam == nil {
				fam = &series{}
				families[key] = fam
			}
			switch {
			case strings.HasSuffix(s.name, "_bucket"):
				fam.buckets = append(fam.buckets, s)
				if s.labels["le"] == "+Inf" {
					fam.hasInf = true
					fam.infVal = s.value
				}
			case strings.HasSuffix(s.name, "_sum"):
				fam.sum = s.value
			case strings.HasSuffix(s.name, "_count"):
				fam.count = s.value
			}
		}
		if len(families) < 2 {
			t.Fatalf("seed %d: expected several histogram series, got %d", seed, len(families))
		}
		for key, fam := range families {
			if !fam.hasInf {
				t.Errorf("seed %d: %s has no +Inf bucket", seed, key)
				continue
			}
			prev := -1.0
			prevLE := ""
			for _, b := range fam.buckets {
				if b.value < prev {
					t.Errorf("seed %d: %s bucket le=%q count %g < previous le=%q count %g",
						seed, key, b.labels["le"], b.value, prevLE, prev)
				}
				prev = b.value
				prevLE = b.labels["le"]
			}
			if fam.infVal != fam.count {
				t.Errorf("seed %d: %s +Inf bucket %g != _count %g", seed, key, fam.infVal, fam.count)
			}
			if fam.count > 0 && fam.sum < 0 {
				t.Errorf("seed %d: %s negative _sum %g with %g observations", seed, key, fam.sum, fam.count)
			}
		}
	}
}
