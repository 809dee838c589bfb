// Package sim implements the discrete-event simulation core: a scheduler
// holding a time-ordered queue of pending events, with deterministic
// tie-breaking by insertion order.
//
// Components schedule one-shot callbacks with At or After, push values
// onto a Lane, the constant-delay FIFO stage that every component with
// that delay shares and that holds one queue entry however many values
// are in flight (a Pipe is the same thing for one owner's values, each
// with its own time), or keep a few recurring deadlines in a Deadlines,
// which holds one queue entry for all of them. Run drains the queue in
// time order until it is empty, a deadline is reached, or the
// simulation is stopped. All simulation state is owned by a single
// goroutine; the scheduler is deliberately not safe for concurrent use
// (parallelism in this repository happens across independent
// simulations, never inside one).
//
// The scheduler is built for the per-packet hot path. The queue is a
// hand-rolled 4-ary min-heap whose entries carry their own (time,
// insertion number) key beside the index of a slot in a value-typed
// arena, so ordering two entries reads two neighbouring array elements
// and never the arena; the slot holds what only firing and cancelling
// need: the callback, the entry's heap position, and a generation
// counter, so a Timer handle to a fired or cancelled event can never
// observe (or corrupt) the slot's next occupant. Freed slots are recycled
// through a free list. Scheduling performs no per-event heap allocation
// once the arena has grown to the simulation's working set, which lanes
// keep at O(distinct delays + timers), not O(components) or O(packets).
//
// A source that fires again and again — a Pipe, and so every Lane, and
// a Deadlines — owns its slot for its whole life instead. An owned slot
// is never released: firing leaves it unqueued, Reset unqueues it, and
// its owner enters it again, or moves it up or down in place when its
// key changes, with no release and re-acquire and no removal and
// re-insertion. Every key it carries was drawn when the value or
// deadline it stands for was armed, exactly as an At at that moment
// would have drawn it, so the order in which events fire does not
// depend on which of them share an entry: about a fifth of a training
// run's events fire at the same instant as the event before them, and
// their order is the order of those insertion numbers.
//
// An event fires in place. A one-shot event's slot is released before
// its handler runs (the handler's own handle already reports
// not-pending) but its heap position, the root, is only marked vacant;
// the first event the handler schedules — a lane's next head, a timer
// re-arming itself — is written there and sifted down once, instead of
// the last entry being moved up and sifted down and the new one
// appended and sifted up. Only a handler that schedules nothing pays for
// the removal. The vacant root is not an entry: Len, read inside a
// handler, counts the events pending besides the running one, exactly as
// if it had been removed first, and every entry's order depends on its
// key alone.
package sim

import (
	"fmt"
	"math/bits"

	"learnability/internal/units"
)

// entry is one position of the heap: an event's key and the slot that
// holds the rest of it.
type entry struct {
	at   units.Time
	seq  uint64 // insertion order; breaks ties deterministically
	slot int32
}

// before orders entries by (at, seq).
func (e entry) before(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// lt is before as a number, 1 or 0, computed without a branch: the
// borrow out of the two-word subtraction (e.at, e.seq) − (o.at, o.seq).
// Times are never negative, so they order the same as unsigned words.
func lt(e, o *entry) int {
	_, borrow := bits.Sub64(e.seq, o.seq, 0)
	_, borrow = bits.Sub64(uint64(e.at), uint64(o.at), borrow)
	return int(borrow)
}

// slot is one event in the scheduler's arena. Slots are recycled: gen
// increments every time a slot is released, invalidating stale Timer
// handles. An owned slot (see own) is never released.
type slot struct {
	fn      func()
	gen     uint64
	heapIdx int32 // index into Scheduler.heap, -1 when not scheduled
	owned   bool
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
	return t.s.heap[t.s.slots[t.slot].heapIdx].at
}

// Scheduler is a discrete-event scheduler. The zero value is ready to
// use, starting at time 0.
type Scheduler struct {
	now     units.Time
	slots   []slot  // event arena; grows to the peak working set, then stable
	free    []int32 // recycled slot indices
	heap    []entry // 4-ary min-heap ordered by (at, seq)
	seq     uint64
	stopped bool
	// vacant is set while a handler runs and has not yet scheduled
	// anything: heap[0] is then the fired event's stale entry, which
	// still sorts before every other (so sifts elsewhere in the heap stop
	// beneath it), for the next schedule to overwrite.
	vacant bool
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

// Peek is what a test that steps a simulation, or recycles one, reads
// of it between events (not from inside a handler): the key of the
// event Step would fire next — its time and insertion number, or
// units.MaxTime if none is pending — and the size of the event arena,
// the peak number of one-shot events pending at once plus one slot per
// owned entry (a Pipe's, a Lane's or a Deadlines'). A recycled
// simulation whose sources all keep their entries runs again without
// changing the arena's size.
func (s *Scheduler) Peek() (at units.Time, seq uint64, slots int) {
	if len(s.heap) == 0 || s.vacant {
		return units.MaxTime, 0, len(s.slots)
	}
	return s.heap[0].at, s.heap[0].seq, len(s.slots)
}

// At schedules fn to run at time t. Events at equal times fire in the
// order their delays began: the order of the At, After, Pipe.Push,
// Lane.Push and Deadlines.Arm calls that created them. Scheduling in the
// past (before Now) panics: it always indicates a logic error in a
// component.
func (s *Scheduler) At(t units.Time, fn func()) Timer {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	si := s.acquire(fn)
	s.insert(entry{at: t, seq: s.reserve(), slot: si})
	return Timer{s: s, slot: si, gen: s.slots[si].gen}
}

// reserve draws the next insertion number. A Pipe draws one at Push and
// a Deadlines at Arm, and key their entry with it whenever that value or
// deadline is the earliest they hold, so the entry carries the key an
// At of its own would have; the heap's total order on (at, seq) does
// not depend on when an entry was inserted or moved.
func (s *Scheduler) reserve() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// acquire takes a slot for fn from the free list, or grows the arena.
func (s *Scheduler) acquire(fn func()) int32 {
	var si int32
	if n := len(s.free); n > 0 {
		si = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{heapIdx: -1})
		si = int32(len(s.slots) - 1)
	}
	s.slots[si].fn = fn
	return si
}

// insert enters an unqueued slot's entry into the heap: into the vacant
// root if a handler is running and has not scheduled yet, else at the
// end.
func (s *Scheduler) insert(e entry) {
	if s.vacant {
		// Len is back to what it was before the running event fired, so
		// the high-water mark cannot move.
		s.vacant = false
		s.heap[0] = e
		s.siftDown(0)
		return
	}
	s.heap = append(s.heap, e)
	if len(s.heap) > s.highWater {
		s.highWater = len(s.heap)
	}
	s.siftUp(len(s.heap) - 1)
}

// own takes a slot for a recurring source whose callback is fn. The
// slot is never released: put enters it into the heap or moves it in
// place, take removes it, and firing or Reset leaves it unqueued for
// its owner to put again. It is always a new slot, never one from the
// free list, so the one-shot events' share of the arena is their own
// peak and a recycled world's next run finds it as large as it needs.
func (s *Scheduler) own(fn func()) int32 {
	s.slots = append(s.slots, slot{fn: fn, heapIdx: -1, owned: true})
	return int32(len(s.slots) - 1)
}

// put keys owned slot si at (t, seq), an insertion number drawn with
// reserve: it enters the heap if it is not queued, and otherwise its
// entry moves up or down in place.
func (s *Scheduler) put(si int32, t units.Time, seq uint64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := entry{at: t, seq: seq, slot: si}
	i := int(s.slots[si].heapIdx)
	if i < 0 {
		s.insert(e)
		return
	}
	up := e.before(s.heap[i])
	s.heap[i] = e
	if up {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

// take removes owned slot si's entry from the heap, if it is queued.
func (s *Scheduler) take(si int32) {
	sl := &s.slots[si]
	if sl.heapIdx >= 0 {
		s.removeAt(int(sl.heapIdx))
		sl.heapIdx = -1
	}
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
// storage instead of re-growing it. Every pending one-shot event's slot
// is released with a generation bump, so outstanding Timer handles
// report not-pending rather than touching a recycled slot. The entry of
// a Pipe or a Deadlines is unqueued and stays its owner's: the pipe is
// emptied with Drain (a lane set with Lanes.Reset) and the deadlines
// disarmed with Deadlines.Reset, neither of which touches anything the
// next run has scheduled. Processed keeps counting across resets (it
// observes the scheduler's lifetime).
func (s *Scheduler) Reset() {
	pending := s.heap
	if s.vacant { // the running event's slot is released or unqueued already
		pending = pending[1:]
		s.vacant = false
	}
	for _, e := range pending {
		if sl := &s.slots[e.slot]; sl.owned {
			sl.heapIdx = -1
		} else {
			s.release(e.slot)
		}
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.stopped = false
	s.highWater = 0
}

// Len reports the exact number of queue entries: one per pending At or
// After event and one per non-empty Pipe or Lane, whatever it holds.
// Cancelling a timer removes its entry immediately, so (unlike a
// lazy-cancellation scheduler) there are never dead entries inflating
// this count. Inside a handler the running event is not counted.
func (s *Scheduler) Len() int {
	if s.vacant {
		return len(s.heap) - 1
	}
	return len(s.heap)
}

// fire runs the earliest event in place. A one-shot event's slot is
// released first, so the handler sees its own handle as not-pending; an
// owned slot is only unqueued. The root is left vacant for the
// handler's first schedule to fill; if the handler scheduled nothing the
// root is removed afterwards. The caller must know the heap is
// non-empty.
func (s *Scheduler) fire() {
	e := s.heap[0]
	sl := &s.slots[e.slot]
	fn := sl.fn
	if sl.owned {
		sl.heapIdx = -1
	} else {
		s.release(e.slot)
	}
	s.vacant = true
	s.now = e.at
	s.processed++
	fn()
	if s.vacant {
		s.vacant = false
		s.removeAt(0)
	}
}

// Run executes events in time order until the queue is empty, Stop is
// called, or the next event would fire after deadline. It returns the
// simulated time at which it stopped: the deadline if it was reached,
// otherwise the time of the last executed event (or the current time if
// no event ran).
func (s *Scheduler) Run(deadline units.Time) units.Time {
	s.stopped = false
	for len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > deadline {
			s.now = deadline
			return s.now
		}
		s.fire()
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
	s.fire()
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

// The heap is 4-ary: children of node i are 4i+1..4i+4. A wider node
// trades slightly more comparisons per level for half the levels and
// better cache behavior on the hot sift paths.

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		s.slots[h[i].slot].heapIdx = int32(i)
		i = parent
	}
	h[i] = e
	s.slots[e.slot].heapIdx = int32(i)
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		if first+4 <= n {
			// A full node, the common case below the root of a busy
			// heap: a tournament of two independent comparisons and a
			// decider, computed rather than branched on. The keys of a
			// busy heap's children are as good as random, so each
			// branch here would be mispredicted about every other time.
			c := h[first : first+4 : first+4]
			lo := lt(&c[1], &c[0])
			hi := 2 + lt(&c[3], &c[2])
			lo += (hi - lo) * lt(&c[hi&3], &c[lo&3])
			min = first + lo
		} else {
			for c := first + 1; c < n; c++ {
				if h[c].before(h[min]) {
					min = c
				}
			}
		}
		if !h[min].before(e) {
			break
		}
		h[i] = h[min]
		s.slots[h[i].slot].heapIdx = int32(i)
		i = min
	}
	h[i] = e
	s.slots[e.slot].heapIdx = int32(i)
}

// removeAt deletes the heap entry at position i, restoring the heap
// invariant. It does not release the slot.
func (s *Scheduler) removeAt(i int) {
	h := s.heap
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		s.slots[h[i].slot].heapIdx = int32(i)
	}
	s.heap = h[:n]
	if i < n {
		s.siftDown(i)
		s.siftUp(i)
	}
}
