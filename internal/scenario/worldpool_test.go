package scenario

import "testing"

// Differential tests for world recycling: a Run executed on a network
// recycled from the world pool (scheduler arena, packet free lists,
// and per-flow rings warmed by an earlier, generally unrelated run)
// must produce results bit-identical to a fresh build. The variants
// reuse pooledVariants, which covers every packet end-of-life path.

// runFresh runs the spec on a freshly built world: Build + Finish
// never touch the pool.
func runFresh(spec Spec) []Result {
	nw, _ := MustBuild(spec)
	return Finish(spec, nw)
}

// mustEqual compares two result slices flow by flow.
func mustEqual(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: result counts differ: %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s flow %d: recycled %+v != fresh %+v", label, i, got[i], want[i])
		}
	}
}

// TestRecycledWorldMatchesFresh proves world recycling is behaviorally
// invisible: after a warm-up run has stocked the pool, a recycled run
// is bit-identical to a fresh build for the same seed, across shapes,
// queue disciplines, and algorithms.
func TestRecycledWorldMatchesFresh(t *testing.T) {
	for name, mk := range pooledVariants() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				// Stock the pool; the next same-shape Run recycles.
				MustRun(mk(seed))
				got := MustRun(mk(seed))
				mustEqual(t, name, got, runFresh(mk(seed)))
			}
		})
	}
}

// TestWorldReuseAcrossSpecs recycles a world across *different* specs
// of the same shape — a drop-tail Cubic run's world hosting an
// sfqCoDel run, then a RemyCC run — the reuse pattern the trainer's
// evaluation loop produces. Each recycled run must match a fresh
// build: nothing of the previous spec (queue, algorithm, buffer
// sizing) may leak through the reused components.
func TestWorldReuseAcrossSpecs(t *testing.T) {
	mks := pooledVariants()
	// All three are two-sender dumbbells, so they share a pool bucket.
	MustRun(mks["cubic-droptail"](11))
	got := MustRun(mks["sfqcodel-aqm-drops"](12))
	mustEqual(t, "sfqcodel after cubic", got, runFresh(mks["sfqcodel-aqm-drops"](12)))

	got = MustRun(mks["remycc-dumbbell"](13))
	mustEqual(t, "remycc after sfqcodel", got, runFresh(mks["remycc-dumbbell"](13)))
}
