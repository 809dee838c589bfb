package remycc

import (
	"learnability/internal/cc"
	"learnability/internal/units"
)

// Window bounds internal to RemyCC. The transport separately enforces a
// floor of one packet; the cap keeps badly-trained actions from filling
// no-drop buffers without bound.
const (
	minWindow = 0.0
	maxWindow = 16384.0
)

// initialWindow is the congestion window at connection start.
const initialWindow = 2.0

// UsageStats records, per whisker, how often it fired and the mean
// memory observed inside it during a run. The trainer uses the counts
// to pick the whisker to optimize and the means to choose split points
// (Remy's "median of observed memory" refinement, approximated by the
// mean).
type UsageStats struct {
	Count []int64               // per-whisker fire counts
	Sum   [][NumSignals]float64 // per-whisker sums of observed memory vectors
}

// NewUsageStats sizes usage accumulators for a tree of n whiskers.
func NewUsageStats(n int) *UsageStats {
	return &UsageStats{Count: make([]int64, n), Sum: make([][NumSignals]float64, n)}
}

// Reset resizes u for a tree of n whiskers and zeroes all accumulators,
// reusing the existing backing arrays when they are large enough. The
// trainer recycles UsageStats buffers across candidate evaluations.
func (u *UsageStats) Reset(n int) {
	if cap(u.Count) < n {
		u.Count = make([]int64, n)
		u.Sum = make([][NumSignals]float64, n)
		return
	}
	u.Count = u.Count[:n]
	u.Sum = u.Sum[:n]
	for i := range u.Count {
		u.Count[i] = 0
		u.Sum[i] = [NumSignals]float64{}
	}
}

// Merge adds other into u (whisker counts must match).
func (u *UsageStats) Merge(other *UsageStats) {
	for i := range other.Count {
		u.Count[i] += other.Count[i]
		for d := 0; d < NumSignals; d++ {
			u.Sum[i][d] += other.Sum[i][d]
		}
	}
}

// MostUsed returns the index of the whisker with the highest count,
// or -1 if nothing fired.
func (u *UsageStats) MostUsed() int {
	best, bestC := -1, int64(0)
	for i, c := range u.Count {
		if c > bestC {
			best, bestC = i, c
		}
	}
	return best
}

// Mean returns the mean observed memory inside whisker i.
func (u *UsageStats) Mean(i int) Vector {
	var v Vector
	if u.Count[i] == 0 {
		return v
	}
	for d := 0; d < NumSignals; d++ {
		v[d] = u.Sum[i][d] / float64(u.Count[i])
	}
	return v
}

// RemyCC executes a whisker tree as a congestion-control algorithm: on
// every ACK it updates the four-signal memory, finds the matching
// whisker, and applies its action (window multiply-and-add plus a
// pacing floor). It ignores loss signals entirely, as the paper's Tao
// protocols do — congestion response is driven purely by the
// ACK-derived signals.
type RemyCC struct {
	tree   *Tree
	memory Memory
	cwnd   float64
	pace   units.Duration

	// lastWhisker caches the previous lookup's whisker: consecutive
	// ACKs almost always land in the same memory region, so the cache
	// short-circuits the tree search on the per-ACK hot path.
	lastWhisker int

	usage *UsageStats // nil outside training

	trace func(TraceEntry) // nil outside traced evaluations
}

// TraceEntry is one per-ACK observation of a RemyCC sender: which
// whisker fired and the state the action produced. Values are copied
// at emit time; the entry retains nothing mutable.
type TraceEntry struct {
	// Time is the simulated time of the ACK.
	Time units.Time
	// Whisker is the index of the whisker that fired.
	Whisker int
	// Cwnd is the congestion window after the action applied.
	Cwnd float64
	// Pace is the intersend pacing interval after the action applied.
	Pace units.Duration
	// Memory is the signal vector the whisker matched.
	Memory Vector
}

// SetTrace installs (or, with nil, removes) a per-ACK trace callback.
// The callback runs on the ACK hot path and — per the telemetry
// invisibility invariant — must not mutate protocol or simulation
// state; it only observes, so traced runs stay bit-equal to untraced
// ones.
func (r *RemyCC) SetTrace(fn func(TraceEntry)) { r.trace = fn }

// New returns a RemyCC executing tree with all four signals enabled.
func New(tree *Tree) *RemyCC { return NewMasked(tree, AllSignals()) }

// NewMasked returns a RemyCC observing only the signals in mask (used
// by the §3.4 knockout study).
func NewMasked(tree *Tree, mask SignalMask) *RemyCC {
	r := new(RemyCC)
	r.Reinit(tree, mask)
	return r
}

// Reinit makes r exactly the controller NewMasked(tree, mask) returns —
// fresh memory under the new mask, no usage accumulator, no trace — so
// a trainer can keep its controllers from run to run instead of
// allocating them.
func (r *RemyCC) Reinit(tree *Tree, mask SignalMask) {
	if tree == nil || tree.Len() == 0 {
		panic("remycc: nil or empty tree")
	}
	*r = RemyCC{tree: tree, memory: Memory{mask: mask}}
	r.Reset(0)
}

// RecordUsage attaches a usage accumulator; the trainer sets one per
// simulated connection.
func (r *RemyCC) RecordUsage(u *UsageStats) { r.usage = u }

// Tree returns the protocol's whisker tree.
func (r *RemyCC) Tree() *Tree { return r.tree }

// LastVector returns the current memory point (the four congestion
// signals), for tracing and inspection.
func (r *RemyCC) LastVector() Vector { return r.memory.Vector() }

// Reset implements cc.Algorithm: each "on" period is a fresh
// connection with cleared memory, paced by the intersend of the
// whisker holding the cleared memory point. That read, and the counted
// lookup in OnACK, are the only reads of the tree's actions; the
// trainer's slot skipping relies on it (see Tree.ResetWhisker).
func (r *RemyCC) Reset(units.Time) {
	r.memory.Reset()
	r.cwnd = initialWindow
	r.lastWhisker = r.tree.ResetWhisker()
	a := r.tree.Action(r.lastWhisker)
	r.pace = units.DurationFromSeconds(a.Intersend)
}

// OnACK implements cc.Algorithm.
func (r *RemyCC) OnACK(now units.Time, fb cc.Feedback) {
	r.memory.Observe(fb)
	v := r.memory.Vector() // clamped into the domain already
	i := r.tree.lookupHinted(&v, r.lastWhisker)
	r.lastWhisker = i
	if r.usage != nil {
		r.usage.Count[i]++
		for d := 0; d < NumSignals; d++ {
			r.usage.Sum[i][d] += v[d]
		}
	}
	a := r.tree.Action(i)
	r.cwnd = a.WindowMult*r.cwnd + a.WindowIncr
	if r.cwnd < minWindow {
		r.cwnd = minWindow
	}
	if r.cwnd > maxWindow {
		r.cwnd = maxWindow
	}
	r.pace = units.DurationFromSeconds(a.Intersend)
	if r.trace != nil {
		r.trace(TraceEntry{Time: now, Whisker: i, Cwnd: r.cwnd, Pace: r.pace, Memory: v})
	}
}

// OnLoss implements cc.Algorithm. Tao protocols do not react to loss.
func (r *RemyCC) OnLoss(units.Time) {}

// OnTimeout implements cc.Algorithm. Tao protocols do not react to
// timeouts either; the transport's RTO still provides reliability.
func (r *RemyCC) OnTimeout(units.Time) {}

// Window implements cc.Algorithm.
func (r *RemyCC) Window() float64 { return r.cwnd }

// PacingInterval implements cc.Algorithm.
func (r *RemyCC) PacingInterval() units.Duration { return r.pace }
