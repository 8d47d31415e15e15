//go:build race

package hotcold_test

// raceEnabled reports whether the race detector instrumented this build;
// its bookkeeping allocates, so allocation caps do not hold under it.
const raceEnabled = true
