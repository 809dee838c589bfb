// Package workload implements the application workload models driving
// senders on and off: the paper's exponential on/off model (§3.1) and a
// deterministic schedule used by the time-domain experiment (Figure 8).
//
// A source arms its transitions through its flow's Entry, one scheduler
// entry the flow owns for its whole life: a Deterministic pushes its
// schedule there when the run starts, an OnOff pushes each next
// transition when the one before it fires, and AlwaysOn pushes nothing.
// So a source allocates nothing when a run starts, and a recycled
// network's next run takes no new scheduler slot.
package workload

import (
	"cmp"
	"slices"

	"learnability/internal/rng"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// Source drives a sender's offered load through its flow's Entry.
type Source interface {
	// Start sets the state the run begins in (Entry.Set) and pushes the
	// transitions it knows at the start of the run.
	Start(e *Entry)
	// Fired follows each transition e fires, once the sender has taken
	// it; it may push the next one.
	Fired(e *Entry, on bool)
}

// Entry is one flow's on/off entry: a sim.Pipe of transitions behind
// one owned scheduler entry, each handed to the flow's set callback when
// its time comes and then to the source that pushed it. Every
// transition fires when, and in the order, an At entered when it was
// pushed would have: a schedule's insertion numbers are drawn at Start,
// an OnOff's at the transition before.
//
// An Entry is made once per flow and started again for every run, so
// starting a run on it allocates nothing.
type Entry struct {
	s    *sim.Scheduler
	set  func(on bool)
	src  Source
	pipe *sim.Pipe[bool]
}

// NewEntry returns an idle entry on s that hands each transition to set.
func NewEntry(s *sim.Scheduler, set func(on bool)) *Entry {
	if set == nil {
		panic("workload: entry with nil set callback")
	}
	e := &Entry{s: s, set: set}
	e.pipe = sim.NewPipe(s, e.fire)
	return e
}

// Start begins a run driven by src. Transitions an earlier run left
// pending are dropped first, whether the scheduler was reset since
// (a recycled network's next run) or not (a network run on from where
// it stopped, its sources started afresh).
func (e *Entry) Start(src Source) {
	e.pipe.Drain(nil)
	e.src = src
	src.Start(e)
}

// Set puts the sender in state on now, without a scheduled transition:
// a source's initial state.
func (e *Entry) Set(on bool) { e.set(on) }

// Push schedules a transition to state on at time at, which must not
// precede Now nor a transition pushed before it.
func (e *Entry) Push(at units.Time, on bool) { e.pipe.Push(at, on) }

// Now returns the scheduler's current time.
func (e *Entry) Now() units.Time { return e.s.Now() }

// fire is the pipe's handler: a transition is due.
func (e *Entry) fire(on bool) {
	e.set(on)
	e.src.Fired(e, on)
}

// OnOff is the paper's workload model: the sender stays "on" for a
// duration drawn from an exponential distribution with mean MeanOn,
// then "off" for an exponential duration with mean MeanOff, repeating.
// The source begins "off" and turns on after an initial exponential
// off-draw, which staggers sender start times. Each period is drawn,
// and its end pushed, when it begins. Both means must be positive and
// Rng set (scenario.Spec checks the means of the sources it makes); a
// source is reset for another run by assigning its fields.
type OnOff struct {
	MeanOn  units.Duration // mean of the exponential on-period
	MeanOff units.Duration // mean of the exponential off-period
	Rng     *rng.Stream    // stream the period draws come from
}

// Start implements Source: off, until the first off-period ends.
func (w *OnOff) Start(e *Entry) {
	e.Set(false)
	w.Fired(e, false)
}

// Fired implements Source: a period in state on began; push its end.
func (w *OnOff) Fired(e *Entry, on bool) {
	mean := w.MeanOff
	if on {
		mean = w.MeanOn
	}
	e.Push(e.Now().Add(units.DurationFromSeconds(w.Rng.Exponential(mean.Seconds()))), !on)
}

// AlwaysOn keeps the sender on for the whole simulation.
type AlwaysOn struct{}

// Start implements Source.
func (AlwaysOn) Start(e *Entry) { e.Set(true) }

// Fired implements Source; AlwaysOn pushes no transition.
func (AlwaysOn) Fired(*Entry, bool) {}

// Transition is one scheduled state change in a Deterministic source.
type Transition struct {
	At units.Time // when the change takes effect
	On bool       // the state after the change
}

// Deterministic replays a fixed schedule of on/off transitions, used by
// the paper's Figure 8 (cross-TCP on at exactly t=5 s, off at t=10 s).
// Start pushes the whole schedule, so each transition draws its
// insertion number at the start of the run, as an At entered there
// would have.
type Deterministic struct {
	InitialOn   bool         // state before the first transition
	Transitions []Transition // the schedule, replayed in time order
}

// Start implements Source. It never modifies Transitions: a schedule
// out of time order is replayed from a stably sorted copy, and one
// already in order (a stable sort would return it unchanged) is
// replayed as it is.
func (w *Deterministic) Start(e *Entry) {
	e.Set(w.InitialOn)
	ts := w.Transitions
	if !slices.IsSortedFunc(ts, byTime) {
		ts = slices.Clone(ts)
		slices.SortStableFunc(ts, byTime)
	}
	for _, tr := range ts {
		e.Push(tr.At, tr.On)
	}
}

// Fired implements Source; the schedule was pushed whole at Start.
func (*Deterministic) Fired(*Entry, bool) {}

// byTime orders transitions by when they take effect.
func byTime(a, b Transition) int { return cmp.Compare(a.At, b.At) }
