package sim

import (
	"fmt"

	"learnability/internal/units"
)

// Deadlines is a fixed set of logical timers — a sender's pace and
// retransmission timers, say — that share one scheduler entry, keyed at
// the earliest of them. Each deadline fires exactly when, and in exactly
// the order, an At of its own would have: Arm draws the insertion number
// an At at that moment would have drawn, and the entry carries the
// (time, insertion number) minimum over the armed deadlines. Re-arming a
// deadline that is not the earliest is a reserve and a store, with no
// heap work; re-arming the earliest, or arming one earlier still, moves
// the entry in place.
//
// A Deadlines is used in place: Init binds it once, and it keeps its
// entry (see Scheduler.own) for its whole life. The handler is told
// which deadline is due; that deadline is disarmed before the handler
// runs, and any other stays armed.
type Deadlines struct {
	s    *Scheduler
	fn   func(i int)
	slot int32
	// head is the deadline the entry is keyed at, -1 while the entry is
	// not queued: no deadline is armed, or the handler of the one that
	// fired is running and has not armed one since.
	head int
	// keys[:k] are the deadlines, held in place so that a Deadlines
	// embedded in its owner costs its owner no allocation of its own.
	keys [MaxDeadlines]deadline
	k    int
}

// MaxDeadlines is the most deadlines one Deadlines holds.
const MaxDeadlines = 4

// deadline is one logical timer's key.
type deadline struct {
	at    units.Time
	seq   uint64
	armed bool
}

// before orders deadlines by (at, seq).
func (d *deadline) before(o *deadline) bool {
	if d.at != o.at {
		return d.at < o.at
	}
	return d.seq < o.seq
}

// Init binds d to s with k deadlines (1 <= k <= MaxDeadlines), all
// disarmed, each handed to fn by its index in [0, k) when it is due. It
// takes d's entry, so a Deadlines is initialised once and disarmed with
// Reset from then on.
func (d *Deadlines) Init(s *Scheduler, k int, fn func(i int)) {
	if fn == nil {
		panic("sim: deadlines with nil handler")
	}
	if k <= 0 || k > MaxDeadlines {
		panic(fmt.Sprintf("sim: %d deadlines", k))
	}
	d.s, d.fn, d.head, d.k = s, fn, -1, k
	d.slot = s.own(d.fire)
}

// Arm (re)arms deadline i to fall due at t, which must not precede Now.
// It is Stop and At on a timer of its own: deadline i keeps its place
// among the events at t by the insertion number drawn now.
func (d *Deadlines) Arm(i int, t units.Time) {
	if t < d.s.now {
		panic(fmt.Sprintf("sim: arming deadline at %v before now %v", t, d.s.now))
	}
	k := &d.keys[i]
	k.at, k.seq, k.armed = t, d.s.reserve(), true
	if d.head >= 0 && d.head != i && d.keys[d.head].before(k) {
		return // the entry stays keyed at an earlier deadline
	}
	d.rekey()
}

// Disarm cancels deadline i, if it is armed.
func (d *Deadlines) Disarm(i int) {
	d.keys[i].armed = false
	if d.head == i {
		d.rekey()
	}
}

// Armed reports whether deadline i is armed.
func (d *Deadlines) Armed(i int) bool { return d.keys[i].armed }

// When reports when armed deadline i falls due, or units.MaxTime if it
// is not armed.
func (d *Deadlines) When(i int) units.Time {
	if !d.keys[i].armed {
		return units.MaxTime
	}
	return d.keys[i].at
}

// Reset disarms every deadline and takes the entry out of the queue if
// it is still there (after Scheduler.Reset it is not).
func (d *Deadlines) Reset() {
	for i := range d.keys[:d.k] {
		d.keys[i].armed = false
	}
	d.head = -1
	d.s.take(d.slot)
}

// rekey keys the entry at the earliest armed deadline, or takes it out
// of the queue when none is armed.
func (d *Deadlines) rekey() {
	head := -1
	for i := range d.keys[:d.k] {
		if k := &d.keys[i]; k.armed && (head < 0 || k.before(&d.keys[head])) {
			head = i
		}
	}
	d.head = head
	if head < 0 {
		d.s.take(d.slot)
		return
	}
	d.s.put(d.slot, d.keys[head].at, d.keys[head].seq)
}

// fire is the entry's callback: the head deadline is due. The entry is
// keyed again after the handler, unless the handler armed a deadline
// and so keyed it already; either way it fills the root its firing left
// vacant if nothing else has.
func (d *Deadlines) fire() {
	i := d.head
	d.keys[i].armed = false
	d.head = -1
	d.fn(i)
	if d.head < 0 {
		d.rekey()
	}
}
