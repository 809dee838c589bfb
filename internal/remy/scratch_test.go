package remy

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/units"
)

// TestEvalOneOnWarmScratchAllocatesItsResults pins what a worker's
// scratch keeps: once a generation's draws have run on it (and grown
// the pooled worlds they run on), evaluating a slot allocates only the
// scenario's results — no sender list, no controllers, no layout, queue
// or workload.
func TestEvalOneOnWarmScratchAllocatesItsResults(t *testing.T) {
	for _, base := range []Config{tinyConfig(), tinyECNConfig()} {
		base.Duration = 2 * units.Second
		base.Replicas = 4
		cfg := base.normalize()
		tree := randomSplitTree(rand.New(rand.NewSource(3)), &cfg, 4)
		draws := cfg.generationDraws(9, 0)
		var sc evalScratch
		var u remycc.UsageStats
		for _, d := range draws {
			cfg.evalOne(tree, d, &u, &sc)
		}
		for k, d := range draws {
			if n := mallocs(func() { cfg.evalOne(tree, d, &u, &sc) }); n > 1 {
				t.Errorf("ecn=%v draw %d: evalOne on a warm scratch made %d allocations, want 1 (the results)", cfg.ECN, k, n)
			}
		}
	}
}

// TestReusedControllersMatchFresh holds the scratch's controllers to
// NewMasked: on the plain and the ECN configs, a slot evaluated on a
// scratch whose controllers last ran the slot under another signal mask
// scores the same bits and records the same usage as on a new scratch.
func TestReusedControllersMatchFresh(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var sc evalScratch
	for _, base := range []Config{tinyConfig(), tinyECNConfig()} {
		base.Duration = 2 * units.Second
		cfg := base.normalize()
		// The other mask sees nothing: a controller that kept it would
		// never leave its reset whisker.
		blind := cfg
		blind.Mask = remycc.SignalMask{}
		differ := 0
		for trial := 0; trial < 6; trial++ {
			tree := randomSplitTree(r, &cfg, 2+r.Intn(5))
			d := cfg.generationDraws(r.Uint64(), 0)[0]
			var dirty remycc.UsageStats
			blindScore := blind.evalOne(tree, d, &dirty, &sc)

			var want, got remycc.UsageStats
			wantScore := cfg.evalOne(tree, d, &want, new(evalScratch))
			gotScore := cfg.evalOne(tree, d, &got, &sc)
			if math.Float64bits(gotScore) != math.Float64bits(wantScore) ||
				!reflect.DeepEqual(got.Count, want.Count) || !reflect.DeepEqual(got.Sum, want.Sum) {
				t.Fatalf("ecn=%v trial %d: reused controllers scored %v (fired %v), new ones %v (fired %v)",
					cfg.ECN, trial, gotScore, got.Count, wantScore, want.Count)
			}
			if blindScore != wantScore {
				differ++
			}
		}
		if differ == 0 {
			t.Fatalf("ecn=%v: the blind mask never changed a score; the reuse check is vacuous", cfg.ECN)
		}
	}
}

// mallocs counts the heap allocations of one call of f.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
