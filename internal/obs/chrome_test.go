package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"a64fxbench/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// chromeDoc mirrors the trace-event JSON document for validation.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestChromeGolden pins the Chrome trace export of the reference 4-rank
// job to a checked-in golden file, and structurally validates the
// format: parseable JSON, per-rank thread tracks, balanced nested
// region slices.
func TestChromeGolden(t *testing.T) {
	t.Parallel()
	job, _ := fourRankJob(t)
	var buf bytes.Buffer
	s := obs.NewChromeSink(&buf)
	s.Job(job)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "chrome_4rank.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, buf.Len())
	} else {
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("chrome export differs from golden file %s (regenerate with -update if intended)", goldenPath)
		}
	}

	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	threads := map[int]bool{}
	begins := map[int]int{}
	slices := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threads[e.Tid] = true
			}
		case "B":
			begins[e.Tid]++
		case "E":
			begins[e.Tid]--
			if begins[e.Tid] < 0 {
				t.Fatalf("tid %d: E without matching B", e.Tid)
			}
		case "X":
			slices++
			if e.Ts < 0 {
				t.Errorf("negative timestamp %v", e.Ts)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	for rank := 0; rank < 4; rank++ {
		if !threads[rank] {
			t.Errorf("missing thread_name metadata for rank %d", rank)
		}
	}
	for tid, n := range begins {
		if n != 0 {
			t.Errorf("tid %d: %d unbalanced region slices", tid, n)
		}
	}
	if slices == 0 {
		t.Error("no complete (X) slices")
	}
}

// TestChromeDeterministic regenerates the export and demands identical
// bytes — the property the sweep-level trace determinism gate rests on.
func TestChromeDeterministic(t *testing.T) {
	t.Parallel()
	var out [2]bytes.Buffer
	for i := range out {
		job, _ := fourRankJob(t)
		s := obs.NewChromeSink(&out[i])
		s.Job(job)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Error("chrome export is not deterministic")
	}
}
