package remycc

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Action is the congestion response attached to a whisker (§3.5): when
// an ACK arrives and the memory falls in the whisker's domain, the
// window becomes WindowMult*cwnd + WindowIncr and transmissions are
// paced at least Intersend seconds apart.
type Action struct {
	// WindowMult is the multiplier m applied to the congestion window.
	WindowMult float64 `json:"window_mult"`
	// WindowIncr is the increment b added to the congestion window, in
	// packets (may be negative).
	WindowIncr float64 `json:"window_incr"`
	// Intersend is the lower bound tau on the pacing interval between
	// outgoing packets, in seconds. Zero disables pacing.
	Intersend float64 `json:"intersend"`
}

// Action bounds used by both the runtime (clamping) and the trainer
// (search space).
const (
	MinWindowMult = 0.0
	MaxWindowMult = 2.0
	MinWindowIncr = -16.0
	MaxWindowIncr = 32.0
	MinIntersend  = 0.00005 // 50 microseconds
	MaxIntersend  = 1.0     // seconds
)

// DefaultAction is the action every protocol starts from before
// training: hold the window, add one packet per ACK, pace lightly.
func DefaultAction() Action {
	return Action{WindowMult: 1, WindowIncr: 1, Intersend: 0.001}
}

// Clamp forces the action into the legal bounds.
func (a Action) Clamp() Action {
	cl := func(x, lo, hi float64) float64 {
		if x < lo {
			return lo
		}
		if x > hi {
			return hi
		}
		return x
	}
	return Action{
		WindowMult: cl(a.WindowMult, MinWindowMult, MaxWindowMult),
		WindowIncr: cl(a.WindowIncr, MinWindowIncr, MaxWindowIncr),
		Intersend:  cl(a.Intersend, MinIntersend, MaxIntersend),
	}
}

// Box is an axis-aligned region of memory space, inclusive of Lo and
// exclusive of Hi except at the domain's upper boundary (lookups clamp
// into the domain, so the boundary point maps to the topmost box).
type Box struct {
	Lo Vector `json:"lo"` // inclusive lower corner
	Hi Vector `json:"hi"` // exclusive upper corner (see boundary rule above)
}

// FullDomain is the box covering the whole memory space.
func FullDomain() Box {
	return Box{
		Lo: Vector{0, 0, 0, MinRatio, 0},
		Hi: Vector{MaxEWMA, MaxEWMA, MaxEWMA, MaxRatio, MaxECNFrac},
	}
}

// domainTop is the memory space's upper corner: a box edge equal to it
// is inclusive.
var domainTop = FullDomain().Hi

// Contains reports whether v lies in the box, treating coordinates at
// the domain's upper edge as contained.
func (b Box) Contains(v Vector) bool { return b.contains(&v) }

// contains is Contains without copying the box or the vector, for the
// per-ACK lookup.
func (b *Box) contains(v *Vector) bool {
	for d := 0; d < NumSignals; d++ {
		if !b.containsAt(d, v[d]) {
			return false
		}
	}
	return true
}

// containsAt is Contains restricted to dimension d: a box contains a
// vector exactly when it contains every coordinate.
func (b *Box) containsAt(d int, x float64) bool {
	lo, hi := b.Lo[d], b.Hi[d]
	return !(x < lo) && !(x >= hi && hi != domainTop[d]) && !(x > hi)
}

// Whisker is one match-action rule: a domain box and the action taken
// for memories falling inside it.
type Whisker struct {
	Domain Box    `json:"domain"` // region of memory space this rule matches
	Action Action `json:"action"` // response applied while memory is in Domain
}

// Tree is the piecewise-constant mapping from memory to action: a set
// of whiskers whose domains partition the memory space. The paper calls
// the overall structure (memory definition + mapping + action
// semantics) a Tao protocol; Tree is its learned component.
//
// Lookup narrows candidates through a first-dimension sorted index and
// scans the surviving bucket. The index depends on the domains alone:
// NewTree, Split and the decoders build it, and the copies Clone and
// WithAction make share it. Because the whiskers partition memory
// space, any search order returns the same unique whisker, so the index
// cannot change results. Trees built as bare literals (no index) fall
// back to a full linear scan. Trees are immutable: the trainer builds
// modified copies rather than mutating.
type Tree struct {
	// Whiskers are the match-action rules; their domains partition the
	// memory space.
	Whiskers []Whisker `json:"whiskers"`

	// idx accelerates Lookup: cuts is the ascending list of whisker
	// boundaries along the first dimension (including the domain edges)
	// and buckets[k] lists the whiskers overlapping [cuts[k], cuts[k+1]).
	// It depends on the domains alone and is never modified once built.
	idx *treeIndex
}

type treeIndex struct {
	cuts    []float64
	buckets [][]int32
}

// buildIndex constructs the first-dimension interval index. Every
// constructor that sets domains calls it; lookups on an unindexed tree
// fall back to the linear scan.
func (t *Tree) buildIndex() {
	if len(t.Whiskers) == 0 {
		t.idx = nil
		return
	}
	cuts := make([]float64, 0, 2*len(t.Whiskers))
	for i := range t.Whiskers {
		cuts = append(cuts, t.Whiskers[i].Domain.Lo[0], t.Whiskers[i].Domain.Hi[0])
	}
	sort.Float64s(cuts)
	uniq := cuts[:1]
	for _, c := range cuts[1:] {
		if c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	if len(uniq) < 2 {
		t.idx = nil
		return
	}
	buckets := make([][]int32, len(uniq)-1)
	for k := range buckets {
		lo, hi := uniq[k], uniq[k+1]
		for i := range t.Whiskers {
			d := &t.Whiskers[i].Domain
			if d.Lo[0] <= lo && d.Hi[0] >= hi {
				buckets[k] = append(buckets[k], int32(i))
			}
		}
	}
	t.idx = &treeIndex{cuts: uniq, buckets: buckets}
}

// NewTree returns the initial single-whisker tree mapping the whole
// domain to the default action.
func NewTree() *Tree {
	t := &Tree{Whiskers: []Whisker{{Domain: FullDomain(), Action: DefaultAction()}}}
	t.buildIndex()
	return t
}

// Lookup returns the index of the whisker containing v (after clamping
// into the domain). It panics if the partition invariant is broken.
func (t *Tree) Lookup(v Vector) int {
	v = v.Clamp()
	return t.lookupClamped(&v)
}

// LookupCached returns the index of the whisker containing v, checking
// hint (the previous lookup's result) first. ACK streams are highly
// local in memory space, so the hint hits on the vast majority of
// per-ACK lookups. A hint out of range is ignored.
func (t *Tree) LookupCached(v Vector, hint int) int {
	v = v.Clamp()
	return t.lookupHinted(&v, hint)
}

// lookupHinted is LookupCached for a vector already clamped into the
// domain, such as Memory.Vector's.
func (t *Tree) lookupHinted(v *Vector, hint int) int {
	if hint >= 0 && hint < len(t.Whiskers) && t.Whiskers[hint].Domain.contains(v) {
		return hint
	}
	return t.lookupClamped(v)
}

func (t *Tree) lookupClamped(v *Vector) int {
	if t.idx != nil {
		k := sort.SearchFloat64s(t.idx.cuts, v[0])
		// SearchFloat64s returns the first cut >= v[0]; map that to the
		// interval [cuts[k-1], cuts[k]) unless v[0] is exactly a cut, in
		// which case it starts the next interval. The top domain edge
		// belongs to the last interval.
		if k == len(t.idx.cuts) || t.idx.cuts[k] != v[0] {
			k--
		}
		if k < 0 {
			k = 0
		}
		if k >= len(t.idx.buckets) {
			k = len(t.idx.buckets) - 1
		}
		for _, wi := range t.idx.buckets[k] {
			if t.Whiskers[wi].Domain.contains(v) {
				return int(wi)
			}
		}
		panic(fmt.Sprintf("remycc: no whisker contains %v; tree partition broken", *v))
	}
	for i := range t.Whiskers {
		if t.Whiskers[i].Domain.contains(v) {
			return i
		}
	}
	panic(fmt.Sprintf("remycc: no whisker contains %v; tree partition broken", *v))
}

// ResetWhisker returns the whisker holding InitialVector, the memory
// point every connection starts from: RemyCC.Reset reads its Intersend
// on every "on" period, whether or not the whisker ever fires on an
// ACK. It depends on the domains alone.
func (t *Tree) ResetWhisker() int { return t.Lookup(InitialVector()) }

// Action returns the action of whisker i.
func (t *Tree) Action(i int) Action { return t.Whiskers[i].Action }

// Len reports the number of whiskers.
func (t *Tree) Len() int { return len(t.Whiskers) }

// Clone returns a copy whose whiskers can be changed without touching
// t's. It shares t's lookup index, which depends only on the domains:
// callers change actions, never domains.
func (t *Tree) Clone() *Tree {
	w := make([]Whisker, len(t.Whiskers))
	copy(w, t.Whiskers)
	return &Tree{Whiskers: w, idx: t.idx}
}

// WithAction returns a copy of the tree with whisker i's action
// replaced by a (clamped).
func (t *Tree) WithAction(i int, a Action) *Tree {
	nt := t.Clone()
	nt.Whiskers[i].Action = a.Clamp()
	return nt
}

// Split replaces whisker i with up to 2^k children produced by
// bisecting its domain at the given point along every dimension in
// dims. Each child inherits the parent's action. Dimensions where the
// split point would produce an empty half are skipped; if no dimension
// is splittable the tree is returned unchanged and ok is false, and so
// it is if the split would leave the tree more whiskers than Validate
// checks.
func (t *Tree) Split(i int, at Vector, dims []Signal) (nt *Tree, ok bool) {
	const minWidthFrac = 1e-3
	parent := t.Whiskers[i]
	boxes := []Box{parent.Domain}
	for _, d := range dims {
		lo, hi := parent.Domain.Lo[d], parent.Domain.Hi[d]
		cut := at[d]
		width := hi - lo
		if cut <= lo+float64(width*minWidthFrac) || cut >= hi-float64(width*minWidthFrac) {
			continue // cut would create a degenerate child
		}
		next := make([]Box, 0, 2*len(boxes))
		for _, b := range boxes {
			lowHalf, highHalf := b, b
			lowHalf.Hi[d] = cut
			highHalf.Lo[d] = cut
			next = append(next, lowHalf, highHalf)
		}
		boxes = next
	}
	if len(boxes) == 1 || len(t.Whiskers)+len(boxes)-1 > maxValidate {
		return t, false
	}
	nt = &Tree{Whiskers: make([]Whisker, 0, len(t.Whiskers)+len(boxes)-1)}
	nt.Whiskers = append(nt.Whiskers, t.Whiskers[:i]...)
	for _, b := range boxes {
		nt.Whiskers = append(nt.Whiskers, Whisker{Domain: b, Action: parent.Action})
	}
	nt.Whiskers = append(nt.Whiskers, t.Whiskers[i+1:]...)
	nt.buildIndex()
	return nt, true
}

// Validate checks the partition invariant exactly: every point of the
// memory space (the closed domain lookups clamp into) lies in exactly
// one whisker under Box.containsAt's edge rule. It returns an error
// naming a point that lies in none or in several, and how many.
//
// No sampling is involved. In each dimension, the tree's box edges that
// fall in the domain, with the domain's own, cut it into cells: a
// half-open interval from each edge to the next, and the top edge as a
// point of its own. No box has an edge inside a cell, so every box
// contains all of a cell or none of it, and the edges themselves are
// one point of each cell. A box's cells in a dimension are a run (its
// containment there is an interval), so whiskers are disjoint exactly
// when no two have overlapping runs in every dimension, and disjoint
// whiskers cover the domain exactly when the cells they contain, the
// product of their run lengths summed over whiskers, are all of them,
// the product of the cell counts. With W whiskers and D signals, each
// dimension has at most 2W+2 cells, and the check takes O(D·W²) time
// (runs, then every pair) and O(D·W) space, on the stack for trees of
// up to validateStack whiskers; naming the point of a hole takes
// O(D²·W²) more. A tree of more than maxValidate whiskers is rejected
// before any of that, so no decoded input costs more than about 10⁸
// steps.
func (t *Tree) Validate() error {
	n := len(t.Whiskers)
	if n == 0 {
		return fmt.Errorf("remycc: empty tree")
	}
	if n > maxValidate {
		return fmt.Errorf("remycc: %d whiskers, more than the %d the partition check counts", n, maxValidate)
	}
	v, ok := t.misfit()
	if !ok {
		return nil
	}
	k := 0
	for i := range t.Whiskers {
		if t.Whiskers[i].Domain.contains(&v) {
			k++
		}
	}
	return fmt.Errorf("remycc: point %v contained in %d whiskers", v, k)
}

// misfit returns a point of the domain that lies in more than one
// whisker, or in none, and whether there is one: Validate's check, for a
// tree of at least one and at most maxValidate whiskers.
func (t *Tree) misfit() (v Vector, ok bool) {
	var edgeBuf [NumSignals][2*validateStack + 2]float64
	var runBuf [validateStack]cellRuns
	var c cells
	for d := range c.edges {
		c.edges[d] = cellEdges(d, t.Whiskers, edgeBuf[d][:0])
	}
	runs := runBuf[:0]
	for i := range t.Whiskers {
		runs = append(runs, c.runs(&t.Whiskers[i].Domain))
	}
	if !c.disjoint(runs, &v) {
		return v, true
	}
	if c.covers(runs, 0) {
		return v, false
	}
	c.hole(runs, 0, &v)
	return v, true
}

// validateStack is the largest tree whose partition check keeps its
// storage on the stack. maxValidate is the largest tree it checks at
// all: one whose quadratic check still takes milliseconds, and whose
// cell counts, at most 2·maxValidate+2 < 2¹³ a dimension, multiply over
// the NumSignals dimensions to less than 2⁶¹, so no count the check
// forms overflows a uint64. Split never grows a tree past it.
const (
	validateStack = 64
	maxValidate   = 1 << 11
)

// cells are the cells of Validate's exact check: edges[d] are the
// sorted distinct box edges of dimension d within the domain, the
// domain's own included, and cell i of dimension d is the half-open
// interval from edges[d][i] to the next edge, or the top edge alone.
type cells struct {
	edges [NumSignals][]float64
}

// cellEdges returns dimension d's edges of the whiskers' cells, built
// in buf.
func cellEdges(d int, ws []Whisker, buf []float64) []float64 {
	full := FullDomain()
	lo, hi := full.Lo[d], full.Hi[d]
	buf = append(buf, lo, hi)
	for i := range ws {
		for _, x := range [2]float64{ws[i].Domain.Lo[d], ws[i].Domain.Hi[d]} {
			if x > lo && x < hi { // NaN is neither
				buf = append(buf, x)
			}
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// cellRuns are a box's cells: in dimension d, first[d] through last[d],
// none if first[d] > last[d].
type cellRuns struct {
	first, last [NumSignals]int32
}

// runs returns the cells b contains.
func (c *cells) runs(b *Box) cellRuns {
	var r cellRuns
	for d, es := range c.edges {
		r.first[d], r.last[d] = 0, -1
		for i, x := range es {
			if b.containsAt(d, x) {
				if r.last[d] < r.first[d] {
					r.first[d] = int32(i)
				}
				r.last[d] = int32(i)
			}
		}
	}
	return r
}

// disjoint reports whether no two of runs share a cell. If two do, it
// sets v to the edge point of the lowest cell they share.
func (c *cells) disjoint(runs []cellRuns, v *Vector) bool {
	for i := range runs {
	pairs:
		for j := i + 1; j < len(runs); j++ {
			a, b := &runs[i], &runs[j]
			for d := range c.edges {
				if max(a.first[d], b.first[d]) > min(a.last[d], b.last[d]) {
					continue pairs
				}
			}
			for d, es := range c.edges {
				v[d] = es[max(a.first[d], b.first[d])]
			}
			return false
		}
	}
	return true
}

// covers reports whether runs, which are disjoint, contain every cell of
// dimensions d onward: whether the cells they contain there number as
// many as there are.
func (c *cells) covers(runs []cellRuns, d int) bool {
	var sum uint64
	for i := range runs {
		sum += c.count(&runs[i], d)
	}
	all := uint64(1)
	for _, es := range c.edges[d:] {
		all *= uint64(len(es))
	}
	return sum == all
}

// count is how many cells of dimensions d onward r contains.
func (c *cells) count(r *cellRuns, d int) uint64 {
	n := uint64(1)
	for e := d; e < NumSignals; e++ {
		if r.first[e] > r.last[e] {
			return 0
		}
		n *= uint64(r.last[e] - r.first[e] + 1)
	}
	return n
}

// hole sets v's coordinates from dimension d on to the first cell (with
// the first dimension outermost) that no run contains, given that runs,
// which are disjoint and contain v's cells before d, miss one.
func (c *cells) hole(runs []cellRuns, d int, v *Vector) {
	if d == NumSignals {
		return
	}
	var sub []cellRuns
	for i, x := range c.edges[d] {
		sub = sub[:0]
		for _, r := range runs {
			if r.first[d] <= int32(i) && int32(i) <= r.last[d] {
				sub = append(sub, r)
			}
		}
		if !c.covers(sub, d+1) {
			v[d] = x
			c.hole(sub, d+1, v)
			return
		}
	}
}

// MarshalJSON / UnmarshalJSON round-trip the tree for cmd/remytrain
// output and cmd/remyeval input.
func (t *Tree) MarshalJSON() ([]byte, error) {
	type alias Tree
	return json.Marshal((*alias)(t))
}

// UnmarshalJSON implements json.Unmarshaler with validation. Trees
// written before the ECNFraction signal existed carry four-element
// domain corners; the missing trailing dimensions decode as the
// zero-width interval [0, 0], which can never be a real whisker box, so
// they are widened to the full domain and the old tree stays a valid
// partition of the grown memory space.
func (t *Tree) UnmarshalJSON(b []byte) error {
	type alias Tree
	if err := json.Unmarshal(b, (*alias)(t)); err != nil {
		return err
	}
	full := FullDomain()
	for i := range t.Whiskers {
		a := t.Whiskers[i].Action
		if math.IsNaN(a.WindowMult) || math.IsNaN(a.WindowIncr) || math.IsNaN(a.Intersend) {
			return fmt.Errorf("remycc: whisker %d has NaN action", i)
		}
		t.Whiskers[i].Action = a.Clamp()
		dom := &t.Whiskers[i].Domain
		for d := 0; d < NumSignals; d++ {
			if dom.Lo[d] == 0 && dom.Hi[d] == 0 {
				dom.Lo[d], dom.Hi[d] = full.Lo[d], full.Hi[d]
			}
		}
	}
	if err := t.Validate(); err != nil {
		return err
	}
	t.buildIndex()
	return nil
}
