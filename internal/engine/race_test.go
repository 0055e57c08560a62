//go:build race

package engine

// raceEnabled reports a race-detector build, in which sync.Pool drops
// some of what is put back, so allocation counts are not exact.
const raceEnabled = true
