//go:build race

package simmpi

// RaceEnabled reports whether the race detector instruments this build.
// Its shadow-memory bookkeeping allocates on channel operations, so
// allocation-exactness tests must skip under -race. It is exported so
// the external simmpi_test package's allocation gate can skip too.
const RaceEnabled = true
