package castep

import (
	"fmt"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/fft"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
)

// TiNCase describes the metered TiN benchmark workload: the standard
// CASTEP TiN benchmark (release 18.1.0), characterised by its band
// count, plane-wave basis size, FFT grid, and the FFT applications per
// SCF cycle. The paper reports performance in SCF cycles per second.
type TiNCase struct {
	// Bands is the number of electronic bands.
	Bands int
	// PlaneWaves is the basis size per band.
	PlaneWaves int
	// Grid is the FFT grid dimension (Grid³ points).
	Grid int
	// FFTPairsPerBandPerCycle counts forward+inverse 3D FFT pairs each
	// band needs per SCF cycle (H applications, density build).
	FFTPairsPerBandPerCycle int
}

// PaperTiN returns the TiN workload model used for Table IX/Figure 5.
func PaperTiN() TiNCase {
	return TiNCase{
		Bands:                   504,
		PlaneWaves:              40000,
		Grid:                    100,
		FFTPairsPerBandPerCycle: 12,
	}
}

// Config describes one metered CASTEP run.
type Config struct {
	// System selects the machine model.
	System *arch.System
	// Cores is the core count on the single node (one MPI process per
	// core, the best configuration per §VII.B). 0 means the largest
	// legal count: the TiN benchmark requires core counts that are a
	// factor or multiple of 8, so Cirrus runs 32 of its 36 cores.
	Cores int
	// Cycles is the number of SCF cycles to simulate (default 5; the
	// rate is steady).
	Cycles int
	// Case is the workload; zero value means PaperTiN.
	Case TiNCase
	// Instrumentation carries the run settings (trace sink,
	// congestion, counters, model, telemetry) into every simulated
	// job unchanged; see simmpi.Instrumentation. CASTEP runs on a
	// single node, so Congestion never changes its results.
	simmpi.Instrumentation
}

// Result is the outcome of a metered run.
type Result struct {
	// SCFCyclesPerSecond is Table IX's metric.
	SCFCyclesPerSecond float64
	// Seconds is the total simulated time.
	Seconds float64
	// Cores is the core count used.
	Cores int
	// Report carries full accounting.
	Report simmpi.Report
}

// LegalCores returns the TiN-legal core counts (factors or multiples of
// 8) available on a system's node, ascending.
func LegalCores(sys *arch.System) []int {
	var out []int
	for c := 1; c <= sys.CoresPerNode(); c++ {
		if legalCoreCount(c) {
			out = append(out, c)
		}
	}
	return out
}

// legalCoreCount reports whether the TiN benchmark can run on c cores:
// c must divide 8 or be a multiple of 8 (§VII.B.1).
func legalCoreCount(c int) bool {
	if c <= 0 {
		return false
	}
	return 8%c == 0 || c%8 == 0
}

// BestCores returns the largest legal core count for a node — 32 on
// Cirrus's 36-core nodes, the full node elsewhere.
func BestCores(sys *arch.System) int {
	cs := LegalCores(sys)
	return cs[len(cs)-1]
}

// Run executes the metered single-node CASTEP TiN benchmark.
func Run(cfg Config) (Result, error) {
	if cfg.System == nil {
		return Result{}, fmt.Errorf("castep: System is required")
	}
	sys := cfg.System
	if cfg.Cores == 0 {
		cfg.Cores = BestCores(sys)
	}
	if cfg.Cores < 1 || cfg.Cores > sys.CoresPerNode() {
		return Result{}, fmt.Errorf("castep: %d cores outside 1..%d", cfg.Cores, sys.CoresPerNode())
	}
	if !legalCoreCount(cfg.Cores) {
		return Result{}, fmt.Errorf("castep: TiN requires core counts that are a factor or multiple of 8, got %d", cfg.Cores)
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 5
	}
	if cfg.Case == (TiNCase{}) {
		cfg.Case = PaperTiN()
	}
	tc := cfg.Case
	procs := cfg.Cores

	// Per-rank work per SCF cycle: the bands distribute over processes.
	bandsPerRank := float64(tc.Bands) / float64(procs)
	fftFlopsPerPair := 2 * fft.Flops3D(tc.Grid)
	n3 := float64(tc.Grid * tc.Grid * tc.Grid)
	// Effective DRAM traffic per 3D transform: blocked pencil passes,
	// ~4 array sweeps of 16-byte complex data per transform.
	fftBytesPerPair := 2 * 4 * n3 * 16

	fftWork := perfmodel.WorkProfile{
		Class: perfmodel.FFTKernel,
		Flops: units.Flops(bandsPerRank * float64(tc.FFTPairsPerBandPerCycle) * fftFlopsPerPair),
		Bytes: units.Bytes(bandsPerRank * float64(tc.FFTPairsPerBandPerCycle) * fftBytesPerPair),
		Calls: int64(bandsPerRank * float64(tc.FFTPairsPerBandPerCycle)),
	}
	gemmWork := perfmodel.WorkProfile{
		Class: perfmodel.LargeGEMM,
		Flops: units.Flops(SubspaceFlops(tc.Bands, tc.PlaneWaves) / float64(procs)),
		Bytes: units.Bytes(float64(tc.Bands*tc.PlaneWaves) * 16 * 3 / float64(procs)),
		Calls: 4,
	}

	model := sys.PerRankModel(procs, 1)
	job := simmpi.JobConfig{
		Procs:          procs,
		Nodes:          1,
		ThreadsPerRank: 1,
		RankModel:      func(int) *perfmodel.CostModel { return model },
		Label:          fmt.Sprintf("castep %s c=%d", sys.ID, procs),
	}
	job.Instrumentation = cfg.Instrumentation

	// The wavefunction transpose: each SCF cycle needs all-to-all
	// communication of grid data among the band groups. Only the block
	// length matters (it sets the wire bytes), so every rank sends the
	// same read-only zero block to every peer.
	a2aBytesPerPeer := units.Bytes(n3 * 16 / float64(procs*procs) * 4)
	var zeroBlock []float64
	if procs > 1 {
		zeroBlock = make([]float64, int(a2aBytesPerPeer)/8)
	}

	rep, err := simmpi.Run(job, func(r *simmpi.Rank) error {
		send := make([][]float64, r.Size())
		for i := range send {
			send[i] = zeroBlock
		}
		for cyc := 0; cyc < cfg.Cycles; cyc++ {
			r.Region("scf-cycle")
			r.Region("fft")
			r.Compute(fftWork)
			r.EndRegion()
			if r.Size() > 1 {
				r.Region("transpose")
				r.Alltoall(send)
				r.EndRegion()
			}
			r.Region("subspace")
			r.Compute(gemmWork)
			r.EndRegion()
			// Density/potential mixing reduction.
			r.AllreduceScalar(0, simmpi.OpSum)
			r.EndRegion()
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	sec := rep.Seconds()
	res := Result{
		Seconds: sec,
		Cores:   procs,
		Report:  rep,
	}
	if sec > 0 {
		res.SCFCyclesPerSecond = float64(cfg.Cycles) / sec
	}
	return res, nil
}
