package remycc

import (
	"encoding/json"
	"fmt"
	"math"
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
// is splittable the tree is returned unchanged and ok is false.
func (t *Tree) Split(i int, at Vector, dims []Signal) (nt *Tree, ok bool) {
	const minWidthFrac = 1e-3
	parent := t.Whiskers[i]
	boxes := []Box{parent.Domain}
	for _, d := range dims {
		lo, hi := parent.Domain.Lo[d], parent.Domain.Hi[d]
		cut := at[d]
		width := hi - lo
		if cut <= lo+width*minWidthFrac || cut >= hi-width*minWidthFrac {
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
	if len(boxes) == 1 {
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

// Validate's sample grid: gridSide points per dimension, both domain
// edges included, gridPoints = gridSide^NumSignals in all.
const (
	gridShift  = 3
	gridSide   = 1 << gridShift
	gridPoints = 1 << (gridShift * NumSignals)
)

// gridCover counts, for every point of Validate's sample grid, the
// whiskers containing it. A point's index holds its per-dimension grid
// indices as gridShift-bit digits, the first dimension most
// significant, so ascending index order is the order of a walk whose
// outermost loop is the first dimension.
type gridCover struct {
	counts [gridPoints]uint8 // saturating at math.MaxUint8
	// in[d][:n[d]] are the index offsets of the grid coordinates of
	// dimension d that the box being added contains.
	in [NumSignals][gridSide]int
	n  [NumSignals]int
}

// gridStride is the index offset of one grid step in dimension d.
func gridStride(d int) int { return 1 << (gridShift * (NumSignals - 1 - d)) }

// add counts every point of the product in[d][:n[d]] × … × in[last],
// offset by base.
func (g *gridCover) add(d, base int) {
	if d == NumSignals-1 {
		for _, o := range g.in[d][:g.n[d]] {
			if c := &g.counts[base+o]; *c < math.MaxUint8 {
				*c++
			}
		}
		return
	}
	for _, o := range g.in[d][:g.n[d]] {
		g.add(d+1, base+o)
	}
}

// Validate checks the partition invariant on a sample grid: every
// memory point maps to exactly one whisker. It returns an error
// describing the first violation found, scanning the grid with the
// first dimension outermost.
//
// Containment is a conjunction of per-dimension tests, so each whisker
// marks the grid coordinates it contains per dimension and counts the
// points of their product: O(gridPoints + NumSignals·gridSide·whiskers)
// for a partition, instead of testing every whisker at every point.
func (t *Tree) Validate() error {
	if len(t.Whiskers) == 0 {
		return fmt.Errorf("remycc: empty tree")
	}
	full := FullDomain()
	const steps = gridSide - 1
	var grid [NumSignals][gridSide]float64
	for d := range grid {
		for s := range grid[d] {
			grid[d][s] = full.Lo[d] + (full.Hi[d]-full.Lo[d])*float64(s)/steps
		}
	}
	var g gridCover
	for i := range t.Whiskers {
		b := &t.Whiskers[i].Domain
		for d := range grid {
			g.n[d] = 0
			for s, x := range grid[d] {
				if b.containsAt(d, x) {
					g.in[d][g.n[d]] = s * gridStride(d)
					g.n[d]++
				}
			}
		}
		g.add(0, 0)
	}
	for p, c := range g.counts {
		if c == 1 {
			continue
		}
		var v Vector
		for d := range v {
			v[d] = grid[d][p/gridStride(d)%gridSide]
		}
		// Recount exactly: the counter saturates.
		n := 0
		for i := range t.Whiskers {
			if t.Whiskers[i].Domain.contains(&v) {
				n++
			}
		}
		return fmt.Errorf("remycc: point %v contained in %d whiskers", v, n)
	}
	return nil
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
