package sim

import (
	"fmt"

	"learnability/internal/units"
)

// Lane is a Pipe bound to one delay: Push sends a value to fire that
// long after Now. Values pushed a fixed delay ahead of a clock that
// never runs backwards are already in firing order whoever pushed them,
// so every stage of a simulation with that delay — the serializers of
// all links of one speed, every hop of one propagation delay — can
// share a lane, and with it one scheduler entry, and each value still
// fires exactly when, and in exactly the order, an After of its own
// would have: its stamp is the time and the insertion number an After
// at the moment of the Push would have drawn.
type Lane[T any] struct {
	p Pipe[T]
	d units.Duration
}

// Push sends v down the lane to fire one delay from now.
func (l *Lane[T]) Push(v T) { l.p.Push(l.p.s.now.Add(l.d), v) }

// Len reports the number of values in flight on the lane.
func (l *Lane[T]) Len() int { return l.p.n }

// Lanes is the set of lanes of one simulation: one per distinct delay
// its stages asked for, all handing their values to one handler. The
// scheduler holds an entry per lane that has values in flight, so its
// queue is as deep as the simulation has distinct delays (plus its
// plain events), not as it has stages.
type Lanes[T any] struct {
	s  *Scheduler
	fn func(T)
	// lanes[:live] carry the current run's delays; the rest is storage
	// that Reset kept, bound to a delay again by the next Lane.
	lanes []*Lane[T]
	live  int
}

// NewLanes returns an empty set on s whose lanes hand each value to fn
// when its time comes.
func NewLanes[T any](s *Scheduler, fn func(T)) *Lanes[T] {
	if fn == nil {
		panic("sim: lanes with nil handler")
	}
	return &Lanes[T]{s: s, fn: fn}
}

// Lane returns the lane of delay d, adding one to the set if no stage
// has asked for that delay since the last Reset. It searches the set, so
// a stage resolves its lane when it is wired (and again after a Reset or
// a change of its delay) and keeps the pointer; a lane a stage has left
// stays in the set, holding no scheduler entry once it has emptied.
func (ls *Lanes[T]) Lane(d units.Duration) *Lane[T] {
	if d < 0 {
		panic(fmt.Sprintf("sim: lane with negative delay %v", d))
	}
	for _, l := range ls.lanes[:ls.live] {
		if l.d == d {
			return l
		}
	}
	if ls.live == len(ls.lanes) {
		l := &Lane[T]{}
		l.p.init(ls.s, ls.fn)
		ls.lanes = append(ls.lanes, l)
	}
	l := ls.lanes[ls.live]
	ls.live++
	l.d = d
	return l
}

// Len reports the number of lanes in the set: the distinct delays asked
// for since the last Reset.
func (ls *Lanes[T]) Len() int { return ls.live }

// Reset empties the set for another run: every value in flight goes to
// into, lane by lane and oldest first (nil discards them), nothing
// fires, and the delays are forgotten, so the next run's set holds only
// the lanes that run asks for. The lanes' storage is kept and handed out
// again by Lane; a pointer resolved before the Reset must not be pushed
// onto after it. It works before or after Scheduler.Reset (see
// Pipe.Drain).
func (ls *Lanes[T]) Reset(into Sink[T]) {
	for _, l := range ls.lanes[:ls.live] {
		l.p.Drain(into)
	}
	ls.live = 0
}
