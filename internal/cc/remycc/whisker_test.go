package remycc

import (
	"fmt"
	"math"
	"testing"

	"learnability/internal/rng"
)

// gridWalkValidate is the partition check as first written, kept as
// Validate's oracle: every whisker tested at every point of the sample
// grid, walked with the first dimension outermost, stopping at the
// first point not contained in exactly one whisker.
func gridWalkValidate(t *Tree) error {
	if len(t.Whiskers) == 0 {
		return fmt.Errorf("remycc: empty tree")
	}
	full := FullDomain()
	const steps = 7
	var v Vector
	var walk func(d int) error
	walk = func(d int) error {
		if d == NumSignals {
			n := 0
			for i := range t.Whiskers {
				if walkContains(&t.Whiskers[i].Domain, &v, &full.Hi) {
					n++
				}
			}
			if n != 1 {
				return fmt.Errorf("remycc: point %v contained in %d whiskers", v, n)
			}
			return nil
		}
		for s := 0; s <= steps; s++ {
			v[d] = full.Lo[d] + (full.Hi[d]-full.Lo[d])*float64(s)/steps
			if err := walk(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
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

// gridCoord is the s-th of Validate's sample coordinates in dimension d.
func gridCoord(d, s int) float64 {
	full := FullDomain()
	return full.Lo[d] + (full.Hi[d]-full.Lo[d])*float64(s)/(gridSide-1)
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
				at[d] = gridCoord(d, 1+r.Intn(gridSide-2))
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
	switch r.Intn(7) {
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
		for s := 0; s < gridSide; s++ {
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
	default:
		// The top edge pulled just inside the domain: no longer
		// inclusive.
		if b.Hi[d] == full.Hi[d] {
			b.Hi[d] = math.Nextafter(full.Hi[d], 0)
		}
		return &Tree{Whiskers: w}, "top edge pulled in"
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestValidateMatchesGridWalk holds the coverage-counting Validate to
// the grid walk it replaced: on random split trees, broken in every way
// breakTree knows, both return nil or the same error, which names the
// first bad point in the walk's order and its exact count. Half the
// trees get two defects: one defect spoils a box of grid points, whose
// lower corner comes first in any scan order, but two boxes tell the
// walk's order from others.
func TestValidateMatchesGridWalk(t *testing.T) {
	r := rng.New(28)
	const trials = 3000
	invalid, nInvalid := map[string]int{}, 0
	for trial := 0; trial < trials; trial++ {
		tree, how := breakTree(r, randomSplitTree(r))
		if r.Intn(2) == 0 {
			var second string
			tree, second = breakTree(r, tree)
			how += " + " + second
		}
		want, got := gridWalkValidate(tree), tree.Validate()
		if errString(got) != errString(want) {
			t.Fatalf("trial %d (%s, %d whiskers): Validate = %v, grid walk = %v", trial, how, tree.Len(), got, want)
		}
		if want != nil {
			invalid[how]++
			nInvalid++
		}
	}
	t.Logf("%d of %d trees invalid", nInvalid, trials)
	for _, how := range []string{"overlap", "on-grid hole", "duplicate whisker", "edge past the domain", "top edge pulled in", "on-grid hole + overlap"} {
		if invalid[how] == 0 {
			t.Errorf("no %q tree was invalid; the comparison never saw that defect fail", how)
		}
	}

	// More whiskers on one point than a uint8 counts: the count in the
	// error is still exact.
	crowd := &Tree{}
	for i := 0; i < 300; i++ {
		crowd.Whiskers = append(crowd.Whiskers, Whisker{Domain: FullDomain(), Action: DefaultAction()})
	}
	if got, want := errString(crowd.Validate()), errString(gridWalkValidate(crowd)); got != want {
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
