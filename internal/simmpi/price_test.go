package simmpi

// The job's pricing tables must return exactly what the models they
// front return: message prices equal the fabric's, bit for bit, through
// hits, misses and evictions, and every compute phase costs what the
// cost model prices it at.

import (
	"fmt"
	"testing"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/netmodel"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/topo"
	"a64fxbench/internal/units"
)

// farTopo is a synthetic topology whose hop counts straddle 255: they
// are 128·|a−b| − 1, so 255 and 511 share their low byte with the
// intra-node −1, and 127 with 383, in any byte-wide key field.
type farTopo struct{}

func (farTopo) Route(a, b int) []topo.Link { return nil }
func (farTopo) MaxNodes() int              { return 0 }
func (farTopo) Hops(a, b int) int {
	if a == b {
		return 0
	}
	return 128*max(a-b, b-a) - 1
}

// stockFabrics are the five systems' fabrics for a job of n nodes.
func stockFabrics(n int) []*netmodel.Fabric {
	return []*netmodel.Fabric{
		netmodel.NewTofuD(n), netmodel.NewAries(), netmodel.NewFDRInfiniBand(),
		netmodel.NewEDRInfiniBand(), netmodel.NewOmniPath(),
	}
}

// priceSizes are message sizes the tables must price exactly: empty,
// one word, halo faces, and a size far beyond any real message.
var priceSizes = []units.Bytes{0, 8, 8 * 16 * 16, 8 * 24 * 24, 8 * 64 * 64, 8 * 130 * 130, 1 << 40}

// checkPrices prices every node pair of an n-node job at every size,
// twice, and demands the fabric's own price each time.
func checkPrices(t *testing.T, f *netmodel.Fabric, n int, sizes []units.Bytes) {
	t.Helper()
	var p pricer
	p.init(f, n)
	for pass := 0; pass < 2; pass++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for _, s := range sizes {
					if got, want := p.price(a, b, s), f.PointToPoint(a, b, s); got != want {
						t.Fatalf("%s, %d nodes, pass %d: price(%d→%d, %d B) = %v, PointToPoint %v",
							f.Name, n, pass, a, b, s, got, want)
					}
				}
			}
		}
	}
}

// TestPriceTableMatchesPointToPoint holds the job's hop and price tables
// to Fabric.PointToPoint bit for bit.
func TestPriceTableMatchesPointToPoint(t *testing.T) {
	t.Parallel()
	t.Run("stock", func(t *testing.T) {
		for n := 1; n <= 16; n++ {
			for _, f := range stockFabrics(n) {
				checkPrices(t, f, n, priceSizes)
			}
		}
	})
	// Many sizes, so that keys whose hop counts share a low byte also
	// share price slots.
	t.Run("far", func(t *testing.T) {
		f := testFabric()
		f.Topo = farTopo{}
		sizes := priceSizes
		for k := 2; k < 130; k++ {
			sizes = append(sizes[:len(sizes):len(sizes)], units.Bytes(8*k))
		}
		checkPrices(t, f, 12, sizes)
	})
	// A 300-node job has more pairs than hop slots, and 600 sizes are
	// more than the price slots: both tables evict. Every price must
	// still be the fabric's, in a forward and then a backward sweep.
	t.Run("evict", func(t *testing.T) {
		const n, sizes = 300, 600
		for _, f := range []*netmodel.Fabric{netmodel.NewTofuD(n), netmodel.NewFDRInfiniBand()} {
			var p pricer
			p.init(f, n)
			check := func(a, b int) {
				s := units.Bytes(8 * ((a*7 + b) % sizes))
				if got, want := p.price(a, b, s), f.PointToPoint(a, b, s); got != want {
					t.Fatalf("%s: price(%d→%d, %d B) = %v, PointToPoint %v", f.Name, a, b, s, got, want)
				}
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					check(a, b)
				}
			}
			for a := n - 1; a >= 0; a-- {
				for b := n - 1; b >= 0; b-- {
					check(a, b)
				}
			}
			if len(p.hopTab) != maxHopSlots {
				t.Fatalf("%s: %d-node hop table has %d slots, want the %d bound", f.Name, n, len(p.hopTab), maxHopSlots)
			}
		}
	})
}

// TestDilatedPriceMatchesPointToPointDilated holds the congested
// replay's price, read at the job table's hop count, to
// Fabric.PointToPointDilated bit for bit.
func TestDilatedPriceMatchesPointToPointDilated(t *testing.T) {
	t.Parallel()
	far := testFabric()
	far.Topo = farTopo{}
	for _, f := range append(stockFabrics(16), far) {
		var p pricer
		p.init(f, 16)
		for a := 0; a < 16; a++ {
			for b := 0; b < 16; b++ {
				for _, s := range priceSizes {
					for _, dil := range []float64{1, 1.5, 7.25} {
						if got, want := p.dilated(a, b, s, dil), f.PointToPointDilated(a, b, s, dil); got != want {
							t.Fatalf("%s: dilated(%d→%d, %d B, ×%v) = %v, PointToPointDilated %v",
								f.Name, a, b, s, dil, got, want)
						}
					}
				}
			}
		}
	}
}

// TestComputeMatchesPhaseTime holds the job's rate table to the cost
// model: every compute phase advances the clock by exactly PhaseTime,
// and by PhaseBreakdown's Time with counters on, on every stock machine,
// for every class, with and without fast math, at 1 and 12 threads. A
// class missing from Eff, or with an invalid efficiency, is priced at
// the default efficiency.
func TestComputeMatchesPhaseTime(t *testing.T) {
	t.Parallel()
	works := func(c perfmodel.KernelClass) []perfmodel.WorkProfile {
		k := units.Flops(c + 1)
		return []perfmodel.WorkProfile{
			{Class: c, Flops: 3 * units.MFlop * k, Bytes: 40 * units.KiB, Calls: 3},
			{Class: c, Flops: 20 * units.KFlop * k, Bytes: 6 * units.MiB, Calls: 1},
		}
	}
	for _, sys := range arch.All() {
		for _, threads := range []int{1, 12} {
			m := sys.PerRankModel(max(1, sys.CoresPerNode()/threads), threads)
			// A copy with SpMV missing from Eff and SymGS invalid, and
			// one that spells out the default for both.
			missing := *m
			missing.Eff = make(map[perfmodel.KernelClass]perfmodel.Efficiency)
			for c, e := range m.Eff {
				missing.Eff[c] = e
			}
			delete(missing.Eff, perfmodel.SpMV)
			missing.Eff[perfmodel.SymGS] = perfmodel.Efficiency{Compute: 0, Memory: 2}
			dflt := missing
			dflt.Eff = make(map[perfmodel.KernelClass]perfmodel.Efficiency)
			for c, e := range missing.Eff {
				dflt.Eff[c] = e
			}
			dflt.Eff[perfmodel.SpMV] = perfmodel.Efficiency{Compute: 0.10, Memory: 0.60}
			dflt.Eff[perfmodel.SymGS] = perfmodel.Efficiency{Compute: 0.10, Memory: 0.60}
			for _, fast := range []bool{false, true} {
				for _, counted := range []bool{false, true} {
					for _, mc := range []struct {
						name       string
						run, price *perfmodel.CostModel
					}{{"stock", m, m}, {"missing", &missing, &dflt}} {
						name := fmt.Sprintf("%s/%s/threads=%d/fast=%v/counted=%v", sys.ID, mc.name, threads, fast, counted)
						c := JobConfig{Procs: 1, ThreadsPerRank: threads, FastMath: fast, CostModel: mc.run}
						if counted {
							c.Counters = &metrics.Config{}
						}
						opt := perfmodel.PhaseOptions{Cores: threads, FastMath: fast}
						_, err := Run(c, func(r *Rank) error {
							for _, class := range perfmodel.KernelClasses() {
								for _, w := range works(class) {
									want := mc.price.PhaseTime(w, opt)
									if counted {
										want = mc.price.PhaseBreakdown(w, opt).Time
									}
									start := r.Now()
									r.Compute(w)
									if got := units.Duration(r.Now() - start); got != want {
										return fmt.Errorf("%s: %v phase %+v took %v, model %v", name, class, w, got, want)
									}
								}
							}
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}
