package hpcg

import "a64fxbench/internal/arch"

// ScaleConfig is the weak-scaled engine-benchmark scenario: the metered
// HPCG CG loop with a deliberately tiny 8³ local problem and a shallow
// V-cycle, so runtime cost is dominated by the simulation engine
// (events, rendezvous, collectives) rather than by work metering. One
// rank per core, as everywhere else; on the A64FX model 2084 nodes
// yields the 100k-rank smoke scenario (100,032 ranks).
//
// The same scenario backs BenchmarkEngineRanksPerSec, the 100k-rank
// smoke test and the allocation gate (TestEngineAllocsPerMsg in
// internal/simmpi), so their numbers are comparable.
func ScaleConfig(sys *arch.System, nodes int) Config {
	return Config{
		System: sys, Nodes: nodes,
		NX: 8, NY: 8, NZ: 8,
		Levels:     2,
		Iterations: 2,
	}
}

// ScaleSmokeNodes is the node count of the 100k-rank smoke scenario on
// the A64FX model: 2084 nodes × 48 cores = 100,032 ranks.
const ScaleSmokeNodes = 2084
