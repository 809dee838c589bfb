package sim

import (
	"fmt"
	"testing"

	"learnability/internal/rng"
	"learnability/internal/units"
)

// timerPair is what the sender-shaped trace below needs of a pace and a
// retransmission timer, with the insertion number each deadline was
// last armed under.
type timerPair interface {
	Arm(i int, t units.Time)
	Disarm(i int)
	Armed(i int) bool
	When(i int) units.Time
	Reset()
	armedSeq(i int) uint64
}

// ownedPair is the production Deadlines.
type ownedPair struct{ *Deadlines }

func (o ownedPair) armedSeq(i int) uint64 { return o.keys[i].seq }

// twoTimers is the sender's timers as they were before they shared an
// entry, kept as the reference: one Timer each, re-armed by Stop and
// At.
type twoTimers struct {
	s   *Scheduler
	t   [2]Timer
	seq [2]uint64
	fn  [2]func()
}

func newTwoTimers(s *Scheduler, fn func(i int)) *twoTimers {
	r := &twoTimers{s: s}
	r.fn = [2]func(){func() { fn(0) }, func() { fn(1) }}
	return r
}

func (r *twoTimers) Arm(i int, t units.Time) {
	r.t[i].Stop()
	r.t[i] = r.s.At(t, r.fn[i])
	r.seq[i] = r.s.heap[r.s.slots[r.t[i].slot].heapIdx].seq
}
func (r *twoTimers) Disarm(i int)          { r.t[i].Stop() }
func (r *twoTimers) Armed(i int) bool      { return r.t[i].Pending() }
func (r *twoTimers) When(i int) units.Time { return r.t[i].When() }
func (r *twoTimers) Reset()                { r.t[0].Stop(); r.t[1].Stop() }
func (r *twoTimers) armedSeq(i int) uint64 { return r.seq[i] }

// senderWorld is a few senders' worth of timers on one scheduler,
// driven the way netsim.Sender drives them: ACKs (on a lane, as the
// network delivers them) re-arm or disarm the retransmission timer and
// re-arm the pace timer unless it is due at the next send time or
// sooner, a pace firing sends and may re-arm both, and a retransmission
// firing backs off. Every decision is drawn from the world's own
// stream, so two worlds that fire the same events in the same order
// draw the same decisions. log holds one line per fired event: its
// time, its insertion number and what it was.
type senderWorld struct {
	s      *Scheduler
	r      *rng.Stream
	timers []timerPair
	acks   *Lanes[int]
	log    []string
	// ties counts deadline firings at the same instant as the event
	// before them, where insertion order alone decides.
	ties int
	last units.Time
}

const (
	pace = 0
	rto  = 1
)

func newSenderWorld(seed uint64, senders int, owned bool) *senderWorld {
	w := &senderWorld{s: New(), r: rng.New(seed).Split("senders")}
	w.acks = NewLanes(w.s, w.ack)
	for f := 0; f < senders; f++ {
		f := f
		fn := func(i int) { w.fired(f, i) }
		if owned {
			d := new(Deadlines)
			d.Init(w.s, 2, fn)
			w.timers = append(w.timers, ownedPair{d})
		} else {
			w.timers = append(w.timers, newTwoTimers(w.s, fn))
		}
	}
	return w
}

// grid is the trace's clock step: pace intervals, delays and RTOs are
// multiples of it, so events of different kinds fall due together.
const grid = units.Millisecond

func (w *senderWorld) note(kind string, seq uint64) {
	now := w.s.Now()
	w.log = append(w.log, fmt.Sprintf("t=%d seq=%d %s", now, seq, kind))
	w.last = now
}

// fired is a deadline's handler.
func (w *senderWorld) fired(f, i int) {
	tm := w.timers[f]
	if w.s.Now() == w.last && len(w.log) > 0 {
		w.ties++
	}
	w.note(fmt.Sprintf("flow %d %s", f, [...]string{"pace", "rto"}[i]), tm.armedSeq(i))
	if tm.Armed(i) {
		panic("a deadline is still armed in its own handler")
	}
	if i == pace {
		w.send(f)
		return
	}
	// Back off, and resend at once.
	tm.Arm(rto, w.s.Now().Add(units.Duration(2+w.r.Intn(6))*grid))
	w.send(f)
}

// send puts a packet of flow f in flight (its ACK comes back on one of
// a few lanes) and paces the next one.
func (w *senderWorld) send(f int) {
	tm := w.timers[f]
	w.acks.Lane(units.Duration(1+w.r.Intn(3)) * grid).Push(f)
	if !tm.Armed(rto) && w.r.Intn(2) == 0 {
		tm.Arm(rto, w.s.Now().Add(units.Duration(3+w.r.Intn(4))*grid))
	}
	if w.r.Intn(4) > 0 {
		w.schedulePace(f)
	}
}

// schedulePace is the sender's rule: arm the pace deadline for the next
// send time unless it is armed for that time or earlier already.
func (w *senderWorld) schedulePace(f int) {
	tm := w.timers[f]
	next := w.s.Now().Add(units.Duration(w.r.Intn(3)) * grid)
	if w.r.Intn(8) == 0 {
		next = w.s.Now().Add(grid / 2) // a pace that divides nothing
	}
	if tm.Armed(pace) && tm.When(pace) <= next {
		return
	}
	tm.Arm(pace, next)
}

// ack is the lanes' handler: flow f's ACK has arrived.
func (w *senderWorld) ack(f int) {
	w.note(fmt.Sprintf("flow %d ack", f), 0)
	tm := w.timers[f]
	switch w.r.Intn(8) {
	case 0: // nothing left outstanding
		tm.Disarm(rto)
	case 1: // a loss: the pace deadline goes, the RTO stays
		tm.Disarm(pace)
	default: // new data acknowledged: restart the RTO
		tm.Arm(rto, w.s.Now().Add(units.Duration(2+w.r.Intn(5))*grid))
	}
	if w.r.Intn(3) > 0 {
		w.send(f)
	}
}

// run starts every sender and runs the world to end.
func (w *senderWorld) run(end units.Time) {
	for f := range w.timers {
		w.send(f)
	}
	w.s.Run(end)
}

// reset recycles the world for another run, as a pooled network does.
func (w *senderWorld) reset() {
	w.s.Reset()
	w.acks.Reset(nil)
	for _, tm := range w.timers {
		tm.Reset()
	}
	w.last = 0
}

// TestDeadlinesMatchTwoTimers drives senders whose pace and
// retransmission timers share one owned entry beside the same senders
// with one Timer per deadline, in lockstep over random ACK, loss,
// pace-change and timeout traces on a clock where everything ties, and
// requires the same fired (time, insertion number, kind) sequence, run
// after recycled run.
func TestDeadlinesMatchTwoTimers(t *testing.T) {
	ties, fires := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		owned, ref := newSenderWorld(seed, 1+int(seed%4), true), newSenderWorld(seed, 1+int(seed%4), false)
		for round := 0; round < 3; round++ {
			end := units.Time(0).Add(units.Duration(200+100*round) * grid)
			owned.run(end)
			ref.run(end)
			if len(owned.log) != len(ref.log) {
				t.Fatalf("seed %d round %d: %d events fired, reference %d", seed, round, len(owned.log), len(ref.log))
			}
			for i := range owned.log {
				if owned.log[i] != ref.log[i] {
					t.Fatalf("seed %d round %d event %d: %s, reference %s", seed, round, i, owned.log[i], ref.log[i])
				}
			}
			if owned.s.Processed() != ref.s.Processed() {
				t.Fatalf("seed %d: Processed %d, reference %d", seed, owned.s.Processed(), ref.s.Processed())
			}
			if owned.s.Len() > ref.s.Len() {
				t.Fatalf("seed %d: %d entries, more than the reference's %d", seed, owned.s.Len(), ref.s.Len())
			}
			fires += len(owned.log)
			owned.log, ref.log = owned.log[:0], ref.log[:0]
			owned.reset()
			ref.reset()
		}
		ties += owned.ties
	}
	if ties < 100 {
		t.Fatalf("vacuous: only %d of %d fired events tied with the one before", ties, fires)
	}
}

// TestDeadlinesOneEntry: however the deadlines are armed, the set holds
// exactly one entry while any is armed and none otherwise, and re-arming
// a later deadline while an earlier one is armed touches no heap entry.
func TestDeadlinesOneEntry(t *testing.T) {
	s := New()
	var got []int
	var d Deadlines
	d.Init(s, 3, func(i int) { got = append(got, i) })
	if s.Len() != 0 {
		t.Fatalf("Len %d with nothing armed", s.Len())
	}
	d.Arm(0, 10)
	d.Arm(1, 20)
	d.Arm(2, 5)
	if s.Len() != 1 || s.heap[0].at != 5 {
		t.Fatalf("Len %d, entry at %v; want one entry at 5", s.Len(), s.heap[0].at)
	}
	before := s.heap[0]
	d.Arm(1, 30) // not the earliest: no heap work
	if s.heap[0] != before {
		t.Fatalf("re-arming a later deadline moved the entry from %+v to %+v", before, s.heap[0])
	}
	d.Arm(1, 10) // ties with deadline 0, armed later: fires after it
	d.Disarm(2)
	if s.Len() != 1 || s.heap[0].at != 10 || d.When(2) != units.MaxTime {
		t.Fatalf("after disarming the earliest: Len %d, entry at %v", s.Len(), s.heap[0].at)
	}
	s.Run(units.MaxTime)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 || s.Len() != 0 {
		t.Fatalf("fired %v, Len %d; want [0 1] and nothing left", got, s.Len())
	}
	for i := 0; i < 3; i++ {
		if d.Armed(i) {
			t.Fatalf("deadline %d still armed after the run", i)
		}
	}
}

// TestOwnedEntriesStayOwned: pipes, lanes and deadlines never hand their
// slots to the free list — not when they fire, empty, drain or are
// reset — and a world recycled by Reset runs again without growing the
// slot arena.
func TestOwnedEntriesStayOwned(t *testing.T) {
	w := newSenderWorld(7, 3, true)
	owned := func() map[int32]bool {
		m := map[int32]bool{}
		for i := range w.s.slots {
			if w.s.slots[i].owned {
				m[int32(i)] = true
			}
		}
		return m
	}
	arena := 0
	for round := 0; round < 4; round++ {
		// One-shot events beside the owned entries.
		for i := 0; i < 5; i++ {
			w.s.After(units.Duration(i)*grid, func() {})
		}
		w.run(units.Time(0).Add(300 * grid))
		for _, si := range w.s.free {
			if w.s.slots[si].owned {
				t.Fatalf("round %d: owned slot %d is on the free list", round, si)
			}
		}
		if n := len(owned()); n != 3+len(w.acks.lanes) {
			t.Fatalf("round %d: %d owned slots, want one per sender and lane (%d)", round, n, 3+len(w.acks.lanes))
		}
		if round == 0 {
			arena = len(w.s.slots)
		} else if len(w.s.slots) != arena {
			t.Fatalf("round %d: the arena grew from %d slots to %d", round, arena, len(w.s.slots))
		}
		w.reset()
	}
}
