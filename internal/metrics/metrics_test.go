package metrics

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

func TestRegistryStable(t *testing.T) {
	t.Parallel()
	if NumCounters() == 0 {
		t.Fatal("empty registry")
	}
	defs := Counters()
	for _, c := range perfmodel.KernelClasses() {
		d := defs[FlopsFor(c)]
		if !strings.HasPrefix(d.Name, "flops.") {
			t.Errorf("FlopsFor(%v) = %q", c, d.Name)
		}
		if d.Kind != Work {
			t.Errorf("flop counter %v is %v, want work", d.Name, d.Kind)
		}
	}
	for c := Collective(0); c < NumCollectives(); c++ {
		if got := defs[CollTime(c)]; got.Kind != Time || !strings.HasSuffix(got.Name, ".ns") {
			t.Errorf("CollTime(%v) = %+v", c, got)
		}
	}
	for id, d := range defs {
		if got := ID(id).String(); got != d.Name {
			t.Fatalf("ID(%d) names %q, registry %q", id, got, d.Name)
		}
	}
}

// TestSamplingGrid drives one PMU through a virtual run of more sample
// periods than MaxSamples and checks the decimation invariants: the
// final period is a power-of-two multiple of the configured one,
// samples sit on its grid strictly increasing, the cap holds, and
// replaying the same input reproduces the series exactly.
func TestSamplingGrid(t *testing.T) {
	t.Parallel()
	const base = units.Microsecond
	run := func() RankCounters {
		p := NewRankPMU(Config{Period: base})
		now := units.Duration(0)
		for i := 0; i < 300; i++ {
			p.Add(MemDRAM, float64(i))
			now += units.Duration(3+i%7) * units.Microsecond
			p.Observe(now)
		}
		return p.Counters(0)
	}
	rc := run()
	if len(rc.Samples) == 0 || len(rc.Samples) > MaxSamples {
		t.Fatalf("got %d samples, want 1..%d", len(rc.Samples), MaxSamples)
	}
	if rc.Period <= base || rc.Period%base != 0 {
		t.Fatalf("final period %v not a multiple of %v above it", rc.Period, base)
	}
	if k := rc.Period / base; k&(k-1) != 0 {
		t.Fatalf("period grew by non-power-of-two factor %d", k)
	}
	last := units.Duration(0)
	prev := -1.0
	for i, s := range rc.Samples {
		if s.At%rc.Period != 0 || s.At <= last {
			t.Fatalf("sample %d at %v off the %v grid (prev %v)", i, s.At, rc.Period, last)
		}
		last = s.At
		if v := s.Values[MemDRAM]; v < prev {
			t.Fatalf("cumulative counter decreased: %v after %v", v, prev)
		} else {
			prev = v
		}
	}
	if !reflect.DeepEqual(rc, run()) {
		t.Fatal("replaying identical input produced a different series")
	}
}

// TestAggregateSeries checks the cross-rank merge: the job series uses
// the coarsest per-rank period, sums last-known values, and freezes
// finished ranks at their final counters.
func TestAggregateSeries(t *testing.T) {
	t.Parallel()
	const base = 10 * units.Nanosecond
	mk := func(stop units.Duration) RankCounters {
		p := NewRankPMU(Config{Period: base})
		for now := units.Duration(0); now <= stop; now += base {
			p.Add(SentMsgs, 1)
			p.Observe(now)
		}
		return p.Counters(0)
	}
	jc := &JobCounters{Ranks: []RankCounters{
		mk(MaxSamples / 2 * base), // fine grid, short
		mk(2 * MaxSamples * base), // decimated → coarser grid, long
	}}
	if jc.Ranks[1].Period <= base {
		t.Fatalf("long rank kept period %v", jc.Ranks[1].Period)
	}
	period, samples := jc.AggregateSeries()
	coarsest := jc.Ranks[0].Period
	if jc.Ranks[1].Period > coarsest {
		coarsest = jc.Ranks[1].Period
	}
	if period != coarsest {
		t.Fatalf("aggregate period %v, want coarsest %v", period, coarsest)
	}
	if len(samples) == 0 {
		t.Fatal("no aggregate samples")
	}
	final := samples[len(samples)-1].Values[SentMsgs]
	want := jc.Total(SentMsgs)
	if final != want {
		t.Fatalf("final aggregate %v, want job total %v", final, want)
	}
	prev := -1.0
	for i, s := range samples {
		if s.At != units.Duration(i+1)*period {
			t.Fatalf("aggregate sample %d at %v, want %v", i, s.At, units.Duration(i+1)*period)
		}
		if v := s.Values[SentMsgs]; v < prev {
			t.Fatalf("aggregate decreased at %v", s.At)
		} else {
			prev = v
		}
	}
}

func snapshotPair() (*Snapshot, *Snapshot) {
	mk := func() *Snapshot {
		s := NewSnapshot(map[string]string{"suite": "test"})
		s.Add("job/makespan.ns", 1e9, Time, "ns")
		s.Add("job/ctr/flops.spmv", 5e8, Work, "flops")
		s.Add("job/rate/gflops", 0.5, Rate, "gflop/s")
		return s
	}
	return mk(), mk()
}

func TestSnapshotRoundTripAndSelfDiff(t *testing.T) {
	t.Parallel()
	s, _ := snapshotPair()
	var b1, b2 bytes.Buffer
	if err := s.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("WriteJSON is not byte-deterministic")
	}
	back, err := ReadSnapshot(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", back, s)
	}
	res := Diff(s, back, DiffOptions{})
	if res.Failed() || res.Compared != 3 || len(res.Added)+len(res.Removed) != 0 {
		t.Fatalf("self-diff not clean: %+v", res)
	}
}

func TestSnapshotRejectsDuplicateKeys(t *testing.T) {
	t.Parallel()
	s := NewSnapshot(nil)
	s.Add("k", 1, Work, "")
	s.Add("k", 2, Work, "")
	if err := s.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestDiffDirectionRules(t *testing.T) {
	t.Parallel()
	opt := DiffOptions{TimeTol: 0.01, RateTol: 0.01}
	cases := []struct {
		name          string
		mutate        func(*Snapshot)
		fail, improve bool
	}{
		{"time regression", func(s *Snapshot) { s.Entries[0].Value *= 1.05 }, true, false},
		{"time improvement", func(s *Snapshot) { s.Entries[0].Value *= 0.9 }, false, true},
		{"time within tol", func(s *Snapshot) { s.Entries[0].Value *= 1.005 }, false, false},
		{"work drift fails exactly", func(s *Snapshot) { s.Entries[1].Value++ }, true, false},
		{"rate drop", func(s *Snapshot) { s.Entries[2].Value *= 0.9 }, true, false},
		{"rate gain", func(s *Snapshot) { s.Entries[2].Value *= 1.1 }, false, true},
		{"removed metric fails", func(s *Snapshot) { s.Entries = s.Entries[:2] }, true, false},
		{"added metric passes", func(s *Snapshot) { s.Add("job/new", 1, Work, "") }, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old, cur := snapshotPair()
			tc.mutate(cur)
			res := Diff(old, cur, opt)
			if res.Failed() != tc.fail {
				t.Fatalf("Failed() = %v, want %v (%+v)", res.Failed(), tc.fail, res)
			}
			if (len(res.Improvements) > 0) != tc.improve {
				t.Fatalf("improvements = %v, want %v", res.Improvements, tc.improve)
			}
		})
	}
}

func TestDiffZeroOldGoesInf(t *testing.T) {
	t.Parallel()
	old, cur := snapshotPair()
	old.Entries[0].Value = 0
	res := Diff(old, cur, DiffOptions{TimeTol: 0.01})
	if len(res.Regressions) != 1 || !math.IsInf(res.Regressions[0].Delta, 1) {
		t.Fatalf("zero-old time growth should be an Inf-delta regression: %+v", res)
	}
}
