//go:build race

package decomp

// raceEnabled reports whether the race detector instruments this build.
// Its shadow-memory bookkeeping allocates on channel operations, so
// allocation guards must skip under -race.
const raceEnabled = true
