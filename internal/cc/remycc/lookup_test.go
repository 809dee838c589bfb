package remycc

import (
	"testing"
)

// splitTree builds a tree of realistic trained size by repeatedly
// splitting the first whisker at its domain midpoint along all
// dimensions (1 -> 16 -> 31 -> ... whiskers).
func splitTree(b testing.TB, rounds int) *Tree {
	t := NewTree()
	for i := 0; i < rounds; i++ {
		var mid Vector
		dom := t.Whiskers[0].Domain
		for d := 0; d < NumSignals; d++ {
			mid[d] = (dom.Lo[d] + dom.Hi[d]) / 2
		}
		nt, ok := t.Split(0, mid, []Signal{RecEWMA, SlowRecEWMA, SendEWMA, RTTRatio})
		if !ok {
			b.Fatalf("split %d degenerate", i)
		}
		t = nt
	}
	return t
}

// lookupPoints is a deterministic walk through memory space with high
// locality (small steps), mimicking the per-ACK signal trajectory.
func lookupPoints(n int) []Vector {
	pts := make([]Vector, n)
	v := Vector{0.01, 0.01, 0.01, 1.1}
	for i := range pts {
		// Slow drift plus an occasional jump, like an on/off workload.
		v[0] += 0.0003
		v[3] += 0.001
		if i%512 == 0 {
			v[0], v[1], v[2], v[3] = 0.4, 0.2, 0.3, 4.0
		}
		if v[0] > MaxEWMA {
			v[0] = 0.01
		}
		if v[3] > MaxRatio {
			v[3] = 1.1
		}
		pts[i] = v
	}
	return pts
}

// TestLookupCachedMatchesLookup cross-checks the cached/indexed lookup
// against the plain linear scan over a locality-heavy trajectory.
func TestLookupCachedMatchesLookup(t *testing.T) {
	tree := splitTree(t, 3)
	linear := &Tree{Whiskers: tree.Whiskers} // no index: linear fallback
	hint := 0
	for _, v := range lookupPoints(4096) {
		want := linear.Lookup(v)
		got := tree.LookupCached(v, hint)
		if got != want {
			t.Fatalf("LookupCached(%v, %d) = %d, linear scan = %d", v, hint, got, want)
		}
		if got := tree.Lookup(v); got != want {
			t.Fatalf("indexed Lookup(%v) = %d, linear scan = %d", v, got, want)
		}
		hint = got
	}
}

// TestLookupZeroAlloc pins the per-ACK whisker lookup at exactly zero
// allocations on a tree of trained size walked with a realistic
// locality pattern: through the last-whisker cache RemyCC uses, and
// through the indexed lookup behind it.
func TestLookupZeroAlloc(t *testing.T) {
	tree := splitTree(t, 3)
	pts := lookupPoints(8192)
	i, hint := 0, 0
	for _, tc := range []struct {
		name   string
		lookup func(Vector)
	}{
		{"cached", func(v Vector) { hint = tree.LookupCached(v, hint) }},
		{"uncached", func(v Vector) { hint = tree.Lookup(v) }},
	} {
		if allocs := testing.AllocsPerRun(len(pts), func() { tc.lookup(pts[i%len(pts)]); i++ }); allocs != 0 {
			t.Errorf("%s lookup allocates %.2f times per call, want 0", tc.name, allocs)
		}
	}
}
