//go:build !race

package remy

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
