package remycc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"learnability/internal/rng"
)

// gridWalkValidate is the partition check as first written: every
// whisker tested at every point of a grid, walked with the first
// dimension outermost, stopping at the first point not contained in
// exactly one whisker. On the grid of the tree's own edges (edgeGrid)
// it is exact and Validate's oracle; on the coarse grid of coarseSide
// points a dimension it is the sampling check Validate replaced.
func gridWalkValidate(t *Tree, grid [NumSignals][]float64) error {
	if len(t.Whiskers) == 0 {
		return fmt.Errorf("remycc: empty tree")
	}
	full := FullDomain()
	var v Vector
	var walk func(d int) error
	walk = func(d int) error {
		if d == NumSignals {
			if n := walkCount(t, &v, &full.Hi); n != 1 {
				return fmt.Errorf("remycc: point %v contained in %d whiskers", v, n)
			}
			return nil
		}
		for _, x := range grid[d] {
			v[d] = x
			if err := walk(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}

// walkCount is how many of t's whiskers contain v.
func walkCount(t *Tree, v *Vector, top *Vector) int {
	n := 0
	for i := range t.Whiskers {
		if walkContains(&t.Whiskers[i].Domain, v, top) {
			n++
		}
	}
	return n
}

// coarseSide is the sampling check's points a dimension, both domain
// edges included.
const coarseSide = 8

// coarseGrid is the sampling check's grid.
func coarseGrid() (g [NumSignals][]float64) {
	for d := range g {
		for s := 0; s < coarseSide; s++ {
			g[d] = append(g[d], gridCoord(d, s))
		}
	}
	return g
}

// edgeGrid is the grid of t's own box edges: per dimension the domain's
// edges and every whisker edge strictly inside the domain, sorted. Each
// is the lowest point of a piece of the domain no whisker edge cuts
// (the top edge a piece of its own), so a walk over it sees every
// containment pattern the domain holds.
func edgeGrid(t *Tree) (g [NumSignals][]float64) {
	full := FullDomain()
	for d := range g {
		g[d] = []float64{full.Lo[d], full.Hi[d]}
		for _, w := range t.Whiskers {
			for _, x := range []float64{w.Domain.Lo[d], w.Domain.Hi[d]} {
				if full.Lo[d] < x && x < full.Hi[d] {
					g[d] = append(g[d], x)
				}
			}
		}
		sort.Float64s(g[d])
		g[d] = slices.Compact(g[d])
	}
	return g
}

// walkContains is Box.Contains as first written, with its own copy of
// the top-edge rule so that the oracle does not share it with Validate.
func walkContains(b *Box, v *Vector, top *Vector) bool {
	for d := 0; d < NumSignals; d++ {
		if v[d] < b.Lo[d] {
			return false
		}
		if v[d] >= b.Hi[d] && b.Hi[d] != top[d] {
			return false
		}
		if v[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// gridCoord is the s-th of the coarse grid's coordinates in dimension d.
func gridCoord(d, s int) float64 {
	full := FullDomain()
	return full.Lo[d] + (full.Hi[d]-full.Lo[d])*float64(s)/(coarseSide-1)
}

// randomSplitTree grows a tree through one to four random splits along
// one or two dimensions, a third of the cuts placed exactly on a grid
// coordinate.
func randomSplitTree(r *rng.Stream) *Tree {
	tree := NewTree()
	for s, splits := 0, 1+r.Intn(4); s < splits; s++ {
		wi := r.Intn(tree.Len())
		dom := tree.Whiskers[wi].Domain
		var at Vector
		for d := range at {
			if r.Intn(3) == 0 {
				at[d] = gridCoord(d, 1+r.Intn(coarseSide-2))
			} else {
				at[d] = r.Uniform(dom.Lo[d], dom.Hi[d])
			}
		}
		var dims []Signal
		for _, d := range r.Perm(NumSignals)[:1+r.Intn(2)] {
			dims = append(dims, Signal(d))
		}
		if nt, ok := tree.Split(wi, at, dims); ok {
			tree = nt
		}
	}
	return tree
}

// breakTree returns a copy of tree with one random defect (or none),
// and the defect's name.
func breakTree(r *rng.Stream, tree *Tree) (*Tree, string) {
	full := FullDomain()
	w := append([]Whisker(nil), tree.Whiskers...)
	i, d := r.Intn(len(w)), r.Intn(NumSignals)
	b := &w[i].Domain
	switch r.Intn(9) {
	case 0:
		return tree, "none"
	case 1:
		// Overlap: an edge widened into the neighbouring whisker.
		if b.Lo[d] > full.Lo[d] {
			b.Lo[d] -= r.Uniform(0, b.Lo[d]-full.Lo[d])
		} else {
			b.Hi[d] += r.Uniform(0, full.Hi[d]-b.Hi[d])
		}
		return &Tree{Whiskers: w}, "overlap"
	case 2:
		// On-grid hole: the lower edge raised to the next grid
		// coordinate above it.
		for s := 0; s < coarseSide; s++ {
			if g := gridCoord(d, s); g > b.Lo[d] {
				b.Lo[d] = g
				break
			}
		}
		return &Tree{Whiskers: w}, "on-grid hole"
	case 3:
		return &Tree{Whiskers: append(w, w[i])}, "duplicate whisker"
	case 4:
		if r.Intn(2) == 0 {
			b.Lo[d] = math.NaN()
		} else {
			b.Hi[d] = math.NaN()
		}
		return &Tree{Whiskers: w}, "NaN bound"
	case 5:
		// An edge moved past the domain's.
		if r.Intn(2) == 0 {
			b.Hi[d] = full.Hi[d] + r.Uniform(0, 1)
		} else {
			b.Lo[d] = full.Lo[d] - r.Uniform(0, 1)
		}
		return &Tree{Whiskers: w}, "edge past the domain"
	case 7, 8:
		// A sub-grid defect: an edge off the coarse grid moved, away
		// from the whisker (a hole) or into its neighbour (an overlap),
		// by half its distance to the nearest coarse coordinate that
		// way, so the piece it opens or doubles holds none.
		hole := r.Intn(2) == 0
		how := map[bool]string{true: "sub-grid hole", false: "sub-grid overlap"}[hole]
		if b.Lo[d] > full.Lo[d] && !onCoarseGrid(d, b.Lo[d]) {
			below, above := coarseAround(d, b.Lo[d])
			if hole {
				b.Lo[d] += (min(above, b.Hi[d]) - b.Lo[d]) / 2
			} else {
				b.Lo[d] -= (b.Lo[d] - below) / 2
			}
			return &Tree{Whiskers: w}, how
		}
		if b.Hi[d] < full.Hi[d] && !onCoarseGrid(d, b.Hi[d]) {
			below, above := coarseAround(d, b.Hi[d])
			if hole {
				b.Hi[d] -= (b.Hi[d] - max(below, b.Lo[d])) / 2
			} else {
				b.Hi[d] += (above - b.Hi[d]) / 2
			}
			return &Tree{Whiskers: w}, how
		}
		return tree, "none"
	default:
		// The top edge pulled just inside the domain: no longer
		// inclusive.
		if b.Hi[d] == full.Hi[d] {
			b.Hi[d] = math.Nextafter(full.Hi[d], 0)
		}
		return &Tree{Whiskers: w}, "top edge pulled in"
	}
}

// onCoarseGrid reports whether x is a coarse grid coordinate of
// dimension d.
func onCoarseGrid(d int, x float64) bool {
	for s := 0; s < coarseSide; s++ {
		if gridCoord(d, s) == x {
			return true
		}
	}
	return false
}

// coarseAround returns the coarse coordinates of dimension d just below
// and just above x, which lies strictly inside the domain.
func coarseAround(d int, x float64) (below, above float64) {
	for s := 1; s < coarseSide; s++ {
		if g := gridCoord(d, s); g > x {
			return gridCoord(d, s-1), g
		}
	}
	panic("coarseAround: x outside the domain")
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestValidateMatchesGridWalk holds the exact Validate to a walk over
// every point of each tree's own edge grid: on random split trees,
// broken in every way breakTree knows, both accept or both reject, and
// the point Validate names holds the number of whiskers it says, not
// one. Half the trees get two defects. Wherever the coarse grid walk
// that Validate replaced rejects a tree, Validate does too, and the
// sub-grid defects, which the coarse walk accepts, it must reject.
func TestValidateMatchesGridWalk(t *testing.T) {
	r := rng.New(28)
	const trials = 4000 // about 440 trees of each defect breakTree makes
	top := FullDomain().Hi
	coarse := coarseGrid()
	invalid, nInvalid, missed, nMissed := map[string]int{}, 0, map[string]int{}, 0
	for trial := 0; trial < trials; trial++ {
		tree, how := breakTree(r, randomSplitTree(r))
		if r.Intn(2) == 0 {
			var second string
			tree, second = breakTree(r, tree)
			how += " + " + second
		}
		exact, got := gridWalkValidate(tree, edgeGrid(tree)), tree.Validate()
		if (got == nil) != (exact == nil) {
			t.Fatalf("trial %d (%s, %d whiskers): Validate = %v, edge grid walk = %v", trial, how, tree.Len(), got, exact)
		}
		if got != nil {
			v, _ := tree.misfit()
			if want := fmt.Sprintf("remycc: point %v contained in %d whiskers", v, walkCount(tree, &v, &top)); got.Error() != want || walkCount(tree, &v, &top) == 1 {
				t.Fatalf("trial %d (%s): Validate = %v; at the point it found, %s", trial, how, got, want)
			}
			invalid[how]++
			nInvalid++
		}
		if sampled := gridWalkValidate(tree, coarse); sampled != nil && got == nil {
			t.Fatalf("trial %d (%s): the coarse grid walk rejects a tree Validate accepts", trial, how)
		} else if sampled == nil && got != nil {
			missed[how]++
			nMissed++
		}
	}
	t.Logf("%d of %d trees invalid, %d of them accepted by the coarse grid walk", nInvalid, trials, nMissed)
	for _, how := range []string{"overlap", "on-grid hole", "duplicate whisker", "edge past the domain", "top edge pulled in", "on-grid hole + overlap", "sub-grid hole", "sub-grid overlap"} {
		if invalid[how] == 0 {
			t.Errorf("no %q tree was invalid; the comparison never saw that defect fail", how)
		}
	}
	for _, how := range []string{"sub-grid hole", "sub-grid overlap"} {
		if missed[how] == 0 {
			t.Errorf("the coarse grid walk caught every %q tree; the defect is not sub-grid", how)
		}
	}

	// More whiskers on one point than a byte counts: the count in the
	// error is exact.
	crowd := &Tree{}
	for i := 0; i < 300; i++ {
		crowd.Whiskers = append(crowd.Whiskers, Whisker{Domain: FullDomain(), Action: DefaultAction()})
	}
	if got, want := errString(crowd.Validate()), errString(gridWalkValidate(crowd, coarse)); got != want {
		t.Fatalf("300 overlapping whiskers: Validate = %s, grid walk = %s", got, want)
	}
	if got, want := errString((&Tree{}).Validate()), "remycc: empty tree"; got != want {
		t.Fatalf("empty tree: Validate = %s", got)
	}
}

// TestValidateZeroAlloc pins the partition check of a valid tree at no
// allocations: the grid and its counters live on the stack.
func TestValidateZeroAlloc(t *testing.T) {
	tree := splitTree(t, 3)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocates %.1f times, want 0", allocs)
	}
}

// TestValidateBoundsTheTree: a tree of maxValidate whiskers — slabs
// along one signal, as many cells as a tree that size can have there —
// is checked, and one whisker more is refused for its size, before the
// quadratic check: a thousand overlapping copies of the full domain
// would otherwise be named as an overlap. Split refuses to grow a tree
// past the bound, so a trained tree always decodes.
func TestValidateBoundsTheTree(t *testing.T) {
	slabs := &Tree{}
	full := FullDomain()
	for i := 0; i < maxValidate; i++ {
		b := full
		b.Lo[0] = full.Lo[0] + (full.Hi[0]-full.Lo[0])*float64(i)/maxValidate
		if i+1 < maxValidate {
			b.Hi[0] = full.Lo[0] + (full.Hi[0]-full.Lo[0])*float64(i+1)/maxValidate
		}
		slabs.Whiskers = append(slabs.Whiskers, Whisker{Domain: b, Action: DefaultAction()})
	}
	if err := slabs.Validate(); err != nil {
		t.Fatalf("%d slabs: %v", maxValidate, err)
	}
	slabs.buildIndex()
	var mid Vector
	for d := range mid {
		mid[d] = (slabs.Whiskers[0].Domain.Lo[d] + slabs.Whiskers[0].Domain.Hi[d]) / 2
	}
	if _, ok := slabs.Split(0, mid, []Signal{1}); ok {
		t.Fatalf("Split grew a tree of %d whiskers", maxValidate)
	}

	crowd := &Tree{}
	for i := 0; i <= maxValidate; i++ {
		crowd.Whiskers = append(crowd.Whiskers, Whisker{Domain: full, Action: DefaultAction()})
	}
	raw, err := crowd.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("remycc: %d whiskers, more than the %d the partition check counts", maxValidate+1, maxValidate)
	if got := errString(crowd.Validate()); got != want {
		t.Fatalf("Validate = %s, want %s", got, want)
	}
	if _, err := DecodeTree(raw); errString(err) != want {
		t.Fatalf("DecodeTree = %v, want %s", err, want)
	}
}

// randomProbe draws a memory vector for lookups: mostly uniform over a
// slightly widened domain (so clamping matters), sometimes with
// coordinates exactly on a whisker edge.
func randomProbe(r *rng.Stream, tree *Tree) Vector {
	full := FullDomain()
	var v Vector
	for d := range v {
		span := full.Hi[d] - full.Lo[d]
		v[d] = r.Uniform(full.Lo[d]-span/10, full.Hi[d]+span/10)
		if r.Intn(4) == 0 {
			b := tree.Whiskers[r.Intn(tree.Len())].Domain
			v[d] = b.Lo[d]
			if r.Intn(2) == 0 {
				v[d] = b.Hi[d]
			}
		}
	}
	return v
}

var treeSink *Tree

// TestCopiesShareIndex checks that Clone and WithAction copies keep
// their parent's lookup index instead of rebuilding it, and answer
// Lookup and LookupCached exactly like a freshly indexed copy and a
// linear scan; a WithAction copy costs the tree and its whiskers.
func TestCopiesShareIndex(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 100; trial++ {
		base := randomSplitTree(r)
		a := Action{WindowMult: r.Uniform(0, 2), WindowIncr: r.Uniform(-16, 32), Intersend: r.Uniform(0, 1)}
		for name, c := range map[string]*Tree{"Clone": base.Clone(), "WithAction": base.WithAction(r.Intn(base.Len()), a)} {
			if c.idx != base.idx {
				t.Fatalf("%s rebuilt the lookup index", name)
			}
			fresh := &Tree{Whiskers: c.Whiskers}
			fresh.buildIndex()
			linear := &Tree{Whiskers: c.Whiskers}
			hint := 0
			for k := 0; k < 200; k++ {
				v := randomProbe(r, c)
				want := fresh.Lookup(v)
				if got := linear.Lookup(v); got != want {
					t.Fatalf("%s: fresh index and linear scan disagree at %v: %d, %d", name, v, want, got)
				}
				if got := c.Lookup(v); got != want {
					t.Fatalf("%s: Lookup(%v) = %d, freshly indexed copy %d", name, v, got, want)
				}
				if got := c.LookupCached(v, hint); got != want {
					t.Fatalf("%s: LookupCached(%v, %d) = %d, freshly indexed copy %d", name, v, hint, got, want)
				}
				hint = r.Intn(c.Len()+2) - 1
			}
		}
	}
	base := splitTree(t, 3)
	if allocs := testing.AllocsPerRun(100, func() { treeSink = base.WithAction(5, DefaultAction()) }); allocs != 2 {
		t.Fatalf("WithAction allocates %.1f times, want 2 (the tree and its whiskers)", allocs)
	}
}
