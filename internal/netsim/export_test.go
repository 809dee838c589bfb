package netsim

import (
	"testing"

	"learnability/internal/cc"
)

// FixedWindow is the tests' constant-window controller.
func FixedWindow(w float64) cc.Algorithm { return &fixedCC{w: w} }

// RunBothLines lets the external test package, which may import the
// topology builders this package cannot, put a network of theirs through
// the lanes-against-per-packet comparison.
func RunBothLines(t *testing.T, build func() *Network) (*Network, []*FlowStats) {
	t.Helper()
	return runBothLines(t, build)
}
