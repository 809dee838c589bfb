// Package sim implements the discrete-event simulation core: a scheduler
// holding a time-ordered queue of pending events, with deterministic
// tie-breaking by insertion order.
//
// Components schedule callbacks with At or After, or push values onto a
// Pipe, a constant-delay FIFO stage that holds one queue entry however
// many values are in flight. Run drains the queue in time order until it
// is empty, a deadline is reached, or the simulation is stopped. All
// simulation state is owned by a single goroutine; the scheduler is
// deliberately not safe for concurrent use (parallelism in this
// repository happens across independent simulations, never inside one).
//
// The scheduler is built for the per-packet hot path: events live in a
// value-typed slot arena indexed by a hand-rolled 4-ary min-heap, freed
// slots are recycled through a free list, and Timer handles carry a
// generation counter so a handle to a fired or cancelled event can never
// observe (or corrupt) the slot's next occupant. Scheduling performs no
// per-event heap allocation once the arena has grown to the simulation's
// working set, which pipes keep at O(components), not O(packets).
package sim

import (
	"fmt"

	"learnability/internal/units"
)

// slot is one event in the scheduler's arena. Slots are recycled: gen
// increments every time a slot is released, invalidating stale Timer
// handles.
type slot struct {
	at      units.Time
	seq     uint64 // insertion order; breaks ties deterministically
	fn      func()
	gen     uint64
	heapIdx int32 // index into Scheduler.heap, -1 when not scheduled
}

// Timer is a handle to a scheduled event that can be cancelled and
// inspected. It is a small value (no allocation); the zero Timer behaves
// like an already-fired timer. Handles are generation-checked: once the
// event fires or is stopped, the handle permanently reports not-pending,
// even after the underlying slot is recycled for a new event.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint64
}

// Stop cancels the timer if it has not fired, removing the event from
// the queue immediately (Len decreases; there are no lazily-cancelled
// "dead" entries). It reports whether the timer was still pending.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	if sl.gen != t.gen || sl.heapIdx < 0 {
		return false
	}
	t.s.removeAt(int(sl.heapIdx))
	t.s.release(t.slot)
	return true
}

// Pending reports whether the timer is scheduled and not yet fired or
// cancelled.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	return sl.gen == t.gen && sl.heapIdx >= 0
}

// When reports the firing time of a pending timer, or units.MaxTime if
// the timer is not pending.
func (t Timer) When() units.Time {
	if !t.Pending() {
		return units.MaxTime
	}
	return t.s.slots[t.slot].at
}

// Scheduler is a discrete-event scheduler. The zero value is ready to
// use, starting at time 0.
type Scheduler struct {
	now     units.Time
	slots   []slot  // event arena; grows to the peak working set, then stable
	free    []int32 // recycled slot indices
	heap    []int32 // 4-ary min-heap of slot indices, ordered by (at, seq)
	seq     uint64
	stopped bool
	// processed counts events executed since creation; highWater is the
	// peak heap length since creation or Reset (observability).
	processed uint64
	highWater int
}

// New returns a new Scheduler starting at time 0.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() units.Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// HighWater reports the peak of Len since the scheduler was created or
// last Reset: the size the event queue actually needed.
func (s *Scheduler) HighWater() int { return s.highWater }

// At schedules fn to run at time t. Events at equal times fire in the
// order their delays began: the order of the At, After and Pipe.Push
// calls that created them. Scheduling in the past (before Now) panics:
// it always indicates a logic error in a component.
func (s *Scheduler) At(t units.Time, fn func()) Timer {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return s.schedule(t, s.reserve(), fn)
}

// reserve draws the next insertion number.
func (s *Scheduler) reserve() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// schedule enters an event into the heap under an insertion number
// drawn earlier with reserve. A Pipe reserves at Push and schedules
// when the value reaches the head of its ring, so the event carries the
// key a per-value At would have given it; the heap's total order on
// (at, seq) does not depend on when an entry was inserted.
func (s *Scheduler) schedule(t units.Time, seq uint64, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	var si int32
	if n := len(s.free); n > 0 {
		si = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		si = int32(len(s.slots) - 1)
	}
	sl := &s.slots[si]
	sl.at = t
	sl.seq = seq
	sl.fn = fn
	sl.heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, si)
	if len(s.heap) > s.highWater {
		s.highWater = len(s.heap)
	}
	s.siftUp(len(s.heap) - 1)
	return Timer{s: s, slot: si, gen: sl.gen}
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d units.Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event %v in the past", d))
	}
	return s.At(s.now.Add(d), fn)
}

// Stop halts Run after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Reset returns the scheduler to its initial state — time zero, no
// pending events, insertion order restarted — while keeping the slot
// arena and free list, so a recycled simulation schedules into warm
// storage instead of re-growing it. Every pending event's slot is
// released with a generation bump, so outstanding Timer handles report
// not-pending rather than touching a recycled slot. A Pipe's armed
// entry goes with the rest; its owner empties the pipe with Drain.
// Processed keeps counting across resets (it observes the scheduler's
// lifetime).
func (s *Scheduler) Reset() {
	for _, si := range s.heap {
		s.release(si)
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.stopped = false
	s.highWater = 0
}

// Len reports the exact number of queue entries: one per pending At or
// After event and one per non-empty Pipe, whatever the pipe holds.
// Cancelling a timer removes its entry immediately, so (unlike a
// lazy-cancellation scheduler) there are never dead entries inflating
// this count.
func (s *Scheduler) Len() int { return len(s.heap) }

// popHead removes the earliest event from the heap, releases its slot,
// and returns its time and callback. The caller must know the heap is
// non-empty.
func (s *Scheduler) popHead() (units.Time, func()) {
	si := s.heap[0]
	sl := &s.slots[si]
	at, fn := sl.at, sl.fn
	s.removeAt(0)
	s.release(si)
	return at, fn
}

// Run executes events in time order until the queue is empty, Stop is
// called, or the next event would fire after deadline. It returns the
// simulated time at which it stopped: the deadline if it was reached,
// otherwise the time of the last executed event (or the current time if
// no event ran).
func (s *Scheduler) Run(deadline units.Time) units.Time {
	s.stopped = false
	for len(s.heap) > 0 && !s.stopped {
		if s.slots[s.heap[0]].at > deadline {
			s.now = deadline
			return s.now
		}
		at, fn := s.popHead()
		s.now = at
		s.processed++
		fn()
	}
	if !s.stopped && s.now < deadline {
		// Queue drained before the deadline; advance to it so callers can
		// measure over the full interval.
		s.now = deadline
	}
	return s.now
}

// Step executes the single next pending event, if any, and reports
// whether one was executed. Used by tests that need fine-grained control.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	at, fn := s.popHead()
	s.now = at
	s.processed++
	fn()
	return true
}

// release returns a slot to the free list, bumping its generation so
// outstanding Timer handles become stale.
func (s *Scheduler) release(si int32) {
	sl := &s.slots[si]
	sl.gen++
	sl.fn = nil // release the callback for GC
	sl.heapIdx = -1
	s.free = append(s.free, si)
}

// less orders slot indices by (at, seq).
func (s *Scheduler) less(a, b int32) bool {
	sa, sb := &s.slots[a], &s.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// The heap is 4-ary: children of node i are 4i+1..4i+4. A wider node
// trades slightly more comparisons per level for half the levels and
// better cache behavior on the hot sift paths.

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	si := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(si, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.slots[h[i]].heapIdx = int32(i)
		i = parent
	}
	h[i] = si
	s.slots[si].heapIdx = int32(i)
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	si := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(h[c], h[min]) {
				min = c
			}
		}
		if !s.less(h[min], si) {
			break
		}
		h[i] = h[min]
		s.slots[h[i]].heapIdx = int32(i)
		i = min
	}
	h[i] = si
	s.slots[si].heapIdx = int32(i)
}

// removeAt deletes the heap entry at position i, restoring the heap
// invariant. It does not release the slot.
func (s *Scheduler) removeAt(i int) {
	h := s.heap
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		s.slots[h[i]].heapIdx = int32(i)
	}
	s.heap = h[:n]
	if i < n {
		s.siftDown(i)
		s.siftUp(i)
	}
}
