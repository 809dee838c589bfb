// Package workload implements the application workload models driving
// senders on and off: the paper's exponential on/off model (§3.1) and a
// deterministic schedule used by the time-domain experiment (Figure 8).
package workload

import (
	"cmp"
	"slices"

	"learnability/internal/rng"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// Source drives a sender's offered load. Start arms the source on the
// scheduler; set is invoked at every on/off transition (and once at
// start for the initial state).
type Source interface {
	// Start arms the source's transitions on the scheduler.
	Start(s *sim.Scheduler, set func(on bool))
}

// OnOff is the paper's workload model: the sender stays "on" for a
// duration drawn from an exponential distribution with mean MeanOn,
// then "off" for an exponential duration with mean MeanOff, repeating.
// The source begins "off" and turns on after an initial exponential
// off-draw, which staggers sender start times.
type OnOff struct {
	MeanOn  units.Duration // mean of the exponential on-period
	MeanOff units.Duration // mean of the exponential off-period
	Rng     *rng.Stream    // stream the period draws come from
}

// NewOnOff returns an exponential on/off source with the given means,
// drawing from r.
func NewOnOff(meanOn, meanOff units.Duration, r *rng.Stream) *OnOff {
	if meanOn <= 0 || meanOff <= 0 {
		panic("workload: OnOff means must be positive")
	}
	if r == nil {
		panic("workload: OnOff needs an rng stream")
	}
	return &OnOff{MeanOn: meanOn, MeanOff: meanOff, Rng: r}
}

// Start implements Source.
func (w *OnOff) Start(s *sim.Scheduler, set func(on bool)) {
	set(false)
	var turnOn, turnOff func()
	turnOn = func() {
		set(true)
		d := units.DurationFromSeconds(w.Rng.Exponential(w.MeanOn.Seconds()))
		s.After(d, turnOff)
	}
	turnOff = func() {
		set(false)
		d := units.DurationFromSeconds(w.Rng.Exponential(w.MeanOff.Seconds()))
		s.After(d, turnOn)
	}
	s.After(units.DurationFromSeconds(w.Rng.Exponential(w.MeanOff.Seconds())), turnOn)
}

// AlwaysOn keeps the sender on for the whole simulation.
type AlwaysOn struct{}

// Start implements Source.
func (AlwaysOn) Start(s *sim.Scheduler, set func(on bool)) { set(true) }

// Transition is one scheduled state change in a Deterministic source.
type Transition struct {
	At units.Time // when the change takes effect
	On bool       // the state after the change
}

// Deterministic replays a fixed schedule of on/off transitions, used by
// the paper's Figure 8 (cross-TCP on at exactly t=5 s, off at t=10 s).
// The whole schedule rides one sim.Pipe: it holds one scheduler entry
// however many transitions remain, and each fires when, and in the order,
// an At entered at Start would have.
type Deterministic struct {
	InitialOn   bool         // state before the first transition
	Transitions []Transition // the schedule, replayed in time order
}

// Start implements Source. It never modifies Transitions: a schedule
// out of time order is replayed from a stably sorted copy, and one
// already in order (a stable sort would return it unchanged) is
// replayed as it is.
func (w *Deterministic) Start(s *sim.Scheduler, set func(on bool)) {
	set(w.InitialOn)
	ts := w.Transitions
	if !slices.IsSortedFunc(ts, byTime) {
		ts = slices.Clone(ts)
		slices.SortStableFunc(ts, byTime)
	}
	p := sim.NewPipe(s, set)
	for _, tr := range ts {
		p.Push(tr.At, tr.On)
	}
}

// byTime orders transitions by when they take effect.
func byTime(a, b Transition) int { return cmp.Compare(a.At, b.At) }
