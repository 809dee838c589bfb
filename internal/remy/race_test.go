//go:build race

package remy

// raceEnabled reports whether the race detector is on. Under it a
// sync.Pool drops items at random, so a count of allocations that
// relies on a pooled value is not exact.
const raceEnabled = true
