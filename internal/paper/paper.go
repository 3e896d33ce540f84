// Package paper is the single source of truth for every numeric value
// published in Jackson et al., "Investigating Applications on the A64FX"
// (IEEE CLUSTER 2020, doi:10.1109/CLUSTER49012.2020.00078): Table I's
// specifications and Tables III-X's measurements. Experiments and tests
// reference these values rather than re-typing them, so a transcription
// fix lands everywhere at once.
//
// Figures 1-5 carry no numeric labels in the paper; their qualitative
// claims are recorded as Claims entries instead.
package paper

// SystemName matches internal/arch's identifiers.
type SystemName string

// The five systems, named as the paper's tables name them.
const (
	A64FX   SystemName = "A64FX"
	ARCHER  SystemName = "ARCHER"
	Cirrus  SystemName = "Cirrus"
	NGIO    SystemName = "EPCC NGIO"
	Fulhame SystemName = "Fulhame"
)

// TableIRow is one column of the paper's Table I (transposed to rows).
type TableIRow struct {
	Processor         string
	Microarch         string
	ClockGHz          float64
	CoresPerProcessor int
	CoresPerNode      int
	ThreadsPerCore    string
	VectorBits        int
	MaxNodeDPGFlops   float64
	MemoryPerNodeGB   float64
	MemoryPerCoreGB   float64
}

// TableI reproduces "Compute node specifications".
var TableI = map[SystemName]TableIRow{
	A64FX: {
		Processor: "Fujitsu A64FX", Microarch: "SVE", ClockGHz: 2.2,
		CoresPerProcessor: 48, CoresPerNode: 48, ThreadsPerCore: "1",
		VectorBits: 512, MaxNodeDPGFlops: 3379,
		MemoryPerNodeGB: 32, MemoryPerCoreGB: 0.66,
	},
	ARCHER: {
		Processor: "Intel Xeon E5-2697 v2", Microarch: "IvyBridge", ClockGHz: 2.7,
		CoresPerProcessor: 12, CoresPerNode: 24, ThreadsPerCore: "1 or 2",
		VectorBits: 256, MaxNodeDPGFlops: 518.4,
		MemoryPerNodeGB: 64, MemoryPerCoreGB: 2.66,
	},
	Cirrus: {
		Processor: "Intel Xeon E5-2695", Microarch: "Broadwell", ClockGHz: 2.1,
		CoresPerProcessor: 18, CoresPerNode: 36, ThreadsPerCore: "1 or 2",
		VectorBits: 256, MaxNodeDPGFlops: 1209.6,
		MemoryPerNodeGB: 256, MemoryPerCoreGB: 7.11,
	},
	NGIO: {
		Processor: "Intel Xeon Platinum 8260M", Microarch: "Cascade Lake", ClockGHz: 2.4,
		CoresPerProcessor: 24, CoresPerNode: 48, ThreadsPerCore: "1 or 2",
		VectorBits: 512, MaxNodeDPGFlops: 2662.4,
		MemoryPerNodeGB: 192, MemoryPerCoreGB: 4,
	},
	Fulhame: {
		Processor: "Marvell ThunderX2", Microarch: "ARMv8", ClockGHz: 2.2,
		CoresPerProcessor: 32, CoresPerNode: 64, ThreadsPerCore: "1, 2, or 4",
		VectorBits: 128, MaxNodeDPGFlops: 1126.4,
		MemoryPerNodeGB: 256, MemoryPerCoreGB: 4,
	},
}

// TableIIIRow is one row of "Single node HPCG performance".
type TableIIIRow struct {
	System    SystemName
	Optimised bool
	GFlops    float64
	// PctPeakPrinted is the percentage column exactly as printed; note
	// the EPCC NGIO rows are inconsistent with their own GFLOP/s (the
	// repository derives self-consistent references instead).
	PctPeakPrinted float64
}

// TableIII reproduces the single-node HPCG results, in row order.
var TableIII = []TableIIIRow{
	{A64FX, false, 38.26, 1.1},
	{ARCHER, false, 15.65, 3.0},
	{Cirrus, false, 17.27, 1.4},
	{NGIO, false, 26.16, 1.4},
	{NGIO, true, 37.61, 2.0},
	{Fulhame, false, 23.58, 2.0},
	{Fulhame, true, 33.80, 3.0},
}

// TableIV reproduces "Multiple node HPCG performance (GFLOP/s)" at 1, 2,
// 4 and 8 nodes. The NGIO and Fulhame rows are the optimised builds.
var TableIV = map[SystemName][4]float64{
	A64FX:   {38.26, 78.94, 157.46, 313.50},
	ARCHER:  {15.65, 26.25, 55.63, 110.52},
	Cirrus:  {17.27, 34.26, 68.44, 136.06},
	NGIO:    {37.61, 73.90, 147.94, 292.60},
	Fulhame: {33.80, 67.68, 133.29, 261.32},
}

// TableIVNodes lists Table IV's node counts, in column order.
var TableIVNodes = [4]int{1, 2, 4, 8}

// TableV reproduces "Single core minikab performance" (seconds).
var TableV = map[SystemName]float64{
	A64FX:   1182,
	NGIO:    1269,
	Fulhame: 2415,
}

// Benchmark1DOF and Benchmark1NNZ are the minikab test matrix's published
// dimensions (§VI.A).
const (
	Benchmark1DOF = 9573984
	Benchmark1NNZ = 696096138
)

// TableVIRow is one row of "Node performance of Nekbone".
type TableVIRow struct {
	Cores            int
	GFlops           float64
	RatioToA64FX     float64
	GFlopsFastMath   float64
	FastRatioToA64FX float64
}

// TableVI reproduces the Nekbone node results.
var TableVI = map[SystemName]TableVIRow{
	A64FX:   {48, 175.74, 1.00, 312.34, 1.00},
	NGIO:    {48, 127.19, 0.72, 90.37, 0.29},
	Fulhame: {64, 121.63, 0.69, 132.65, 0.42},
	ARCHER:  {24, 66.55, 0.40, 68.22, 0.21},
}

// NekboneGPUReference records §VI.B.1's GPU comparison points (GFLOP/s,
// from Karp et al. 2020).
var NekboneGPUReference = map[string]float64{
	"P100": 200,
	"V100": 300,
}

// TableVII reproduces "Inter-node parallel efficiency" at 2, 4, 8 and 16
// nodes.
var TableVII = map[SystemName][4]float64{
	A64FX:   {0.99, 0.97, 0.97, 0.96},
	Fulhame: {0.99, 0.99, 0.97, 0.98},
	ARCHER:  {0.98, 0.98, 0.97, 0.97},
}

// TableVIINodes lists Table VII's node counts, in column order.
var TableVIINodes = [4]int{2, 4, 8, 16}

// TableVIII reproduces "COSA: processes per node".
var TableVIII = map[SystemName]int{
	A64FX: 48, ARCHER: 24, Cirrus: 36, Fulhame: 64, NGIO: 48,
}

// COSA test-case constants (§VII.A.1).
const (
	COSAHarmonics  = 4
	COSABlocks     = 800
	COSACells      = 3690218
	COSAMemoryGB   = 60
	COSAIterations = 100
)

// TableIXRow is one row of "CASTEP TiN best single node performance".
type TableIXRow struct {
	Cores           int
	SCFCyclesPerSec float64
	RatioToA64FX    float64
}

// TableIX reproduces the CASTEP results.
var TableIX = map[SystemName]TableIXRow{
	A64FX:   {48, 0.145, 1.00},
	ARCHER:  {24, 0.074, 0.51},
	NGIO:    {48, 0.184, 1.27},
	Cirrus:  {32, 0.125, 0.86},
	Fulhame: {64, 0.141, 0.97},
}

// TableX reproduces "OpenSBLI performance (total runtime in seconds)" at
// 1, 2, 4 and 8 nodes.
var TableX = map[SystemName][4]float64{
	A64FX:   {3.44, 1.89, 1.04, 0.69},
	Cirrus:  {1.90, 0.93, 0.53, 0.35},
	NGIO:    {1.18, 0.75, 0.46, 0.31},
	Fulhame: {1.17, 0.74, 0.65, 0.28},
}

// TableXNodes lists Table X's node counts, in column order.
var TableXNodes = [4]int{1, 2, 4, 8}

// Claim records one of the paper's qualitative statements attached to a
// figure (the figures carry no numeric labels).
type Claim struct {
	Artifact  string
	Statement string
}

// Claims lists the figure-level statements the reproduction checks.
var Claims = []Claim{
	{"fig1", "using 1 process per CMG with 12 OpenMP threads per process gives the best performance for minikab"},
	{"fig1", "the largest plain MPI configuration able to fit into the available memory is 48 MPI processes"},
	{"fig2", "the A64FX system outperforms Fulhame across the range of core counts"},
	{"fig2", "it does not scale as well as the Fulhame system"},
	{"fig3", "the Arm technologies, both the A64FX and ThunderX2 are scaling much better at higher core counts than the Intel technologies"},
	{"fig3", "the Ivy Bridge in ARCHER performs very well initially, competitive with the Cascade Lake, but then experiences a significant relative performance decrease beyond four cores"},
	{"fig4", "the benchmark would not fit on a single A64FX node"},
	{"fig4", "the A64FX consistently outperforms the other systems, all the way up to 16 nodes, where performance is overtaken by Fulhame"},
	{"fig5", "on all systems, the best performance was achieved using MPI only"},
	{"fig5", "the benchmark can only be run with total core counts that are either a factor or multiple of 8"},
}
