//go:build race

package serve

// raceEnabled reports whether the race detector instrumented this build:
// it allocates for its own bookkeeping and makes sync.Pool drop a share
// of what is put back, so byte bounds are looser under it.
const raceEnabled = true
