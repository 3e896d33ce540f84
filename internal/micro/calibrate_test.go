package micro

import (
	"math"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/spec"
)

// TestCalibrateEmbeddedSelfConsistent is the acceptance gate for the
// calibration protocol: the embedded specs' anchors were generated from
// the committed model, so refitting must reproduce the committed
// efficiency tables to well within 1%.
func TestCalibrateEmbeddedSelfConsistent(t *testing.T) {
	t.Parallel()
	for _, m := range spec.Embedded() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			cal, err := Calibrate(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := cal.MaxScaleError(); got > 0.01 {
				t.Errorf("fitted scales (mem %.6f, comp %.6f) deviate %.4f from 1, want < 1%%",
					cal.MemoryScale, cal.ComputeScale, got)
			}
			for class, want := range m.Efficiency {
				got := cal.Eff[class]
				if relErr(got.Compute, want.Compute) > 0.01 || relErr(got.Memory, want.Memory) > 0.01 {
					t.Errorf("%s: refit %v differs from committed %v by > 1%%", class, got, want)
				}
			}
			if cal.LatencyModel <= 0 {
				t.Error("latency consistency probe returned zero")
			}
			if cal.LatencyAnchor <= 0 {
				t.Error("embedded specs declare a latency anchor")
			}
			// The fabric is declared data, not fitted: the modelled
			// latency must already sit on the declared anchor.
			if relErr(cal.LatencyModel.Seconds(), cal.LatencyAnchor.Seconds()) > 0.01 {
				t.Errorf("latency model %v vs anchor %v differ > 1%%", cal.LatencyModel, cal.LatencyAnchor)
			}
		})
	}
}

// TestCalibrateDetectsDriftedAnchors declares a what-if machine whose
// anchors disagree with its efficiency table; the fit must move the
// scales off 1 in the right direction.
func TestCalibrateDetectsDriftedAnchors(t *testing.T) {
	t.Parallel()
	base, ok := spec.Get("A64FX")
	if !ok {
		t.Fatal("A64FX not registered")
	}
	s := base.Spec // copy
	s.Name = "A64FX-drift-test"
	anchors := *s.Anchors
	// Claim 20% less triad bandwidth and 10% more peak than the table
	// predicts.
	anchors.TriadBandwidth = spec.FormatByteRate(base.Anchors.TriadBandwidth * 0.8)
	anchors.PeakFlops = spec.FormatFlopRate(base.Anchors.PeakFlops * 1.1)
	s.Anchors = &anchors
	m, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m)
	if err != nil {
		t.Fatal(err)
	}
	if cal.MemoryScale > 0.85 || cal.MemoryScale < 0.7 {
		t.Errorf("MemoryScale = %.4f, want ≈0.8 for a 20%% slower triad anchor", cal.MemoryScale)
	}
	if cal.ComputeScale < 1.05 || cal.ComputeScale > 1.2 {
		t.Errorf("ComputeScale = %.4f, want ≈1.1 for a 10%% faster peak anchor", cal.ComputeScale)
	}
	if cal.MaxScaleError() < 0.01 {
		t.Error("drifted anchors must not pass the 1% gate")
	}
	// Refit never exceeds an efficiency of 1.
	for class, e := range cal.Eff {
		if e.Compute > 1 || e.Memory > 1 {
			t.Errorf("%s: refit efficiency %v out of range", class, e)
		}
	}
}

// TestPeakFlopsIsComputeBound pins the peak kernel's result to the
// calibrated LargeGEMM compute ceiling.
func TestPeakFlopsIsComputeBound(t *testing.T) {
	t.Parallel()
	for _, id := range arch.IDs() {
		sys := arch.MustGet(id)
		got, err := PeakFlops(sys)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		ceiling := float64(sys.Node.PeakFlops) * sys.Eff[perfmodel.LargeGEMM].Compute
		if float64(got) > ceiling {
			t.Errorf("%s: peak kernel %.1f GF/s above calibrated ceiling %.1f", id, float64(got)/1e9, ceiling/1e9)
		}
		if float64(got) < 0.9*ceiling {
			t.Errorf("%s: peak kernel %.1f GF/s not compute bound (ceiling %.1f)", id, float64(got)/1e9, ceiling/1e9)
		}
	}
}

// TestTriadExpectationBandsDiffer: the whole point of the calibrated
// band is that it is per-system.
func TestTriadExpectationBandsDiffer(t *testing.T) {
	t.Parallel()
	loA, hiA := TriadExpectation(arch.MustGet(arch.A64FX))
	loR, hiR := TriadExpectation(arch.MustGet(arch.ARCHER))
	if loA <= 0 || loR <= 0 || hiA <= loA || hiR <= loR {
		t.Fatalf("degenerate bands: A64FX [%v %v], ARCHER [%v %v]", loA, hiA, loR, hiR)
	}
	fracA := float64(hiA) / float64(arch.MustGet(arch.A64FX).Node.PeakBandwidth())
	fracR := float64(hiR) / float64(arch.MustGet(arch.ARCHER).Node.PeakBandwidth())
	if math.Abs(fracA-fracR) < 0.05 {
		t.Errorf("bands should reflect per-system efficiency: A64FX %.3f vs ARCHER %.3f of peak", fracA, fracR)
	}
}

func TestCalibrateValidation(t *testing.T) {
	t.Parallel()
	if _, err := Calibrate(nil); err == nil {
		t.Error("nil machine should fail")
	}
	if _, err := PeakFlops(nil); err == nil {
		t.Error("nil system should fail")
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
