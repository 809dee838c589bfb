package workload_test

import (
	"math"
	"slices"
	"sort"
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/netsim"
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/sim"
	"learnability/internal/units"
	"learnability/internal/workload"
)

func TestOnOffAlternates(t *testing.T) {
	s := sim.New()
	w := workload.NewOnOff(units.Second, units.Second, rng.New(1))
	var states []bool
	w.Start(s, func(on bool) { states = append(states, on) })
	s.Run(units.Time(60 * units.Second))
	if len(states) < 10 {
		t.Fatalf("only %d transitions in 60s with 1s means", len(states))
	}
	if states[0] != false {
		t.Fatal("OnOff must start off")
	}
	for i := 1; i < len(states); i++ {
		if states[i] == states[i-1] {
			t.Fatalf("transition %d did not alternate", i)
		}
	}
}

func TestOnOffDutyCycle(t *testing.T) {
	// Mean on 5 s, mean off 10 ms: duty cycle ~ 99.8%.
	s := sim.New()
	w := workload.NewOnOff(5*units.Second, 10*units.Millisecond, rng.New(2))
	var onTime units.Duration
	var since units.Time
	on := false
	w.Start(s, func(o bool) {
		now := s.Now()
		if on {
			onTime += now.Sub(since)
		}
		on = o
		since = now
	})
	end := s.Run(units.Time(2000 * units.Second))
	if on {
		onTime += end.Sub(since)
	}
	duty := onTime.Seconds() / end.Seconds()
	if math.Abs(duty-5.0/5.010) > 0.01 {
		t.Fatalf("duty cycle = %.4f, want ~0.998", duty)
	}
}

func TestOnOffMeanDurations(t *testing.T) {
	s := sim.New()
	w := workload.NewOnOff(units.Second, 2*units.Second, rng.New(3))
	var onStart units.Time
	var onDur, offDur []float64
	var offStart units.Time
	w.Start(s, func(on bool) {
		now := s.Now()
		if on {
			onStart = now
			if now > 0 {
				offDur = append(offDur, now.Sub(offStart).Seconds())
			}
		} else {
			offStart = now
			if now > 0 {
				onDur = append(onDur, now.Sub(onStart).Seconds())
			}
		}
	})
	s.Run(units.Time(5000 * units.Second))
	mean := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	if len(onDur) < 300 {
		t.Fatalf("too few on periods: %d", len(onDur))
	}
	if m := mean(onDur); math.Abs(m-1) > 0.15 {
		t.Fatalf("mean on duration = %.3f, want ~1", m)
	}
	if m := mean(offDur); math.Abs(m-2) > 0.3 {
		t.Fatalf("mean off duration = %.3f, want ~2", m)
	}
}

func TestOnOffValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { workload.NewOnOff(0, units.Second, rng.New(1)) },
		func() { workload.NewOnOff(units.Second, 0, rng.New(1)) },
		func() { workload.NewOnOff(units.Second, units.Second, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAlwaysOn(t *testing.T) {
	s := sim.New()
	var states []bool
	workload.AlwaysOn{}.Start(s, func(on bool) { states = append(states, on) })
	s.Run(units.Time(units.Second))
	if len(states) != 1 || !states[0] {
		t.Fatalf("states = %v", states)
	}
}

// TestDeterministicSchedule: an unsorted schedule replays in time order,
// transitions at one instant in the order they were given.
func TestDeterministicSchedule(t *testing.T) {
	sec := func(n int) units.Time { return units.Time(0).Add(units.Duration(n) * units.Second) }
	w := &workload.Deterministic{InitialOn: false, Transitions: []workload.Transition{
		{At: sec(15), On: true},
		{At: sec(10), On: false}, // out of order on purpose
		{At: sec(5), On: true},
		{At: sec(10), On: true},
		{At: sec(10), On: false},
	}}
	type ev struct {
		at units.Time
		on bool
	}
	var evs []ev
	s := sim.New()
	w.Start(s, func(on bool) { evs = append(evs, ev{s.Now(), on}) })
	s.Run(sec(20))
	want := []ev{{0, false}, {sec(5), true}, {sec(10), false}, {sec(10), true}, {sec(10), false}, {sec(15), true}}
	if len(evs) != len(want) {
		t.Fatalf("evs = %v", evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("evs[%d] = %v, want %v", i, evs[i], want[i])
		}
	}
}

// TestDeterministicDoesNotMutateInput: an out-of-order schedule is
// replayed in time order from a copy; the caller's slice keeps its
// order.
func TestDeterministicDoesNotMutateInput(t *testing.T) {
	trs := []workload.Transition{
		{At: units.Time(2 * units.Second), On: true},
		{At: units.Time(1 * units.Second), On: false},
		{At: units.Time(3 * units.Second), On: false},
	}
	given := slices.Clone(trs)
	w := &workload.Deterministic{Transitions: trs}
	s := sim.New()
	var at []units.Time
	w.Start(s, func(bool) { at = append(at, s.Now()) })
	s.Run(units.MaxTime)
	if !slices.Equal(trs, given) {
		t.Fatalf("Start reordered the caller's slice: %v, given %v", trs, given)
	}
	if want := []units.Time{0, units.Time(units.Second), units.Time(2 * units.Second), units.Time(3 * units.Second)}; !slices.Equal(at, want) {
		t.Fatalf("transitions fired at %v, want %v", at, want)
	}
}

// TestDeterministicSortedStartsWithoutCopy: a schedule already in time
// order is replayed as it is, so starting it allocates exactly one
// slice less — the sorted copy — than starting the same transitions out
// of order.
func TestDeterministicSortedStartsWithoutCopy(t *testing.T) {
	sorted := &workload.Deterministic{}
	for i := 0; i < 20; i++ {
		sorted.Transitions = append(sorted.Transitions, workload.Transition{At: units.Time(0).Add(units.Duration(i/2) * units.Second), On: i%2 == 0})
	}
	unsorted := &workload.Deterministic{Transitions: slices.Clone(sorted.Transitions)}
	unsorted.Transitions[0], unsorted.Transitions[2] = unsorted.Transitions[2], unsorted.Transitions[0]
	start := func(w *workload.Deterministic) float64 {
		return testing.AllocsPerRun(10, func() { w.Start(sim.New(), func(bool) {}) })
	}
	if got, out := start(sorted), start(unsorted); got != out-1 {
		t.Fatalf("starting a sorted schedule made %v allocations, an unsorted one %v: want one fewer", got, out)
	}
}

// TestDeterministicHoldsOneEntry: the schedule costs the event queue one
// entry however long it is, and every transition still fires.
func TestDeterministicHoldsOneEntry(t *testing.T) {
	w := &workload.Deterministic{}
	for i := 0; i < 50; i++ {
		w.Transitions = append(w.Transitions, workload.Transition{At: units.Time(0).Add(units.Duration(i/2) * units.Second), On: i%2 == 0})
	}
	s := sim.New()
	fired := -1 // Start reports the initial state
	w.Start(s, func(bool) {
		fired++
		if s.Len() > 1 {
			t.Fatalf("Len = %d inside transition %d", s.Len(), fired)
		}
	})
	if s.Len() != 1 {
		t.Fatalf("Len = %d after Start with 50 transitions pending, want 1", s.Len())
	}
	s.Run(units.MaxTime)
	if fired != 50 || s.HighWater() != 1 {
		t.Fatalf("%d transitions fired at a heap high-water of %d, want 50 and 1", fired, s.HighWater())
	}
}

// inTimeOrder returns a stably sorted copy of a schedule.
func inTimeOrder(ts []workload.Transition) []workload.Transition {
	ts = append([]workload.Transition(nil), ts...)
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].At < ts[j].At })
	return ts
}

// perTransitionAt is the reference workload.Deterministic is held to: the same
// schedule with every transition entered as its own event at Start.
type perTransitionAt struct{ workload.Deterministic }

func (w *perTransitionAt) Start(s *sim.Scheduler, set func(on bool)) {
	set(w.InitialOn)
	for _, tr := range inTimeOrder(w.Transitions) {
		tr := tr
		s.At(tr.At, func() { set(tr.On) })
	}
}

// chained is the implementation the pipe must not be mistaken for: one
// entry as well, but each transition is entered only when the one before
// it fires, so it draws a later insertion number and loses ties it
// should win.
type chained struct{ workload.Deterministic }

func (w *chained) Start(s *sim.Scheduler, set func(on bool)) {
	set(w.InitialOn)
	ts := inTimeOrder(w.Transitions)
	var next func()
	next = func() {
		set(ts[0].On)
		if ts = ts[1:]; len(ts) > 0 {
			s.At(ts[0].At, next)
		}
	}
	s.At(ts[0].At, next)
}

// TestDeterministicMatchesPerTransitionAt runs two Cubic flows over a
// 12 Mbps dumbbell (1 ms per packet, 50 ms each way, so every packet
// event lands on a 1 ms grid) under on/off schedules on the same grid
// with most periods shorter than the propagation delay, and requires the
// flows' stats to be equal, field for field, to the run in which every
// transition was its own At. The chained source shows the ties are real:
// it differs only in the insertion numbers its transitions draw, and
// that moves the result.
func TestDeterministicMatchesPerTransitionAt(t *testing.T) {
	run := func(seed uint64, wrap func(workload.Deterministic) workload.Source) []netsim.FlowStats {
		const rate, rtt = 12 * units.Mbps, 100 * units.Millisecond
		nw := netsim.New()
		link := netsim.NewLink(nw.Sched, rate, rtt/2, queue.NewDropTail(20*packet.MTU))
		nw.AddLink(link)
		next := make([]netsim.Deliverer, 2)
		for i := range next {
			r := rng.New(seed).SplitN("workload", i)
			var w workload.Deterministic
			at := units.Time(0)
			for on := true; at < units.Time(10*units.Second); on = !on {
				w.Transitions = append(w.Transitions, workload.Transition{At: at, On: on})
				d := 5 + r.Intn(40)
				if on && r.Intn(3) == 0 {
					d += 500 // long enough for slow start to overrun the buffer
				}
				at = at.Add(units.Duration(d) * units.Millisecond)
			}
			st := &netsim.FlowStats{Flow: i, PropDelay: rtt / 2, MinRTT: rtt}
			rcv := netsim.NewReceiver(nw.Sched, i, rtt/2, st)
			snd := netsim.NewSender(nw.Sched, i, cubic.New(), link, st)
			rcv.SetSender(snd)
			next[i] = rcv
			nw.AddFlow(&netsim.Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: wrap(w)})
		}
		link.SetRoute(next)
		var out []netsim.FlowStats
		for _, st := range nw.Run(10 * units.Second) {
			out = append(out, *st)
		}
		return out
	}
	tiesMatter := false
	for seed := uint64(1); seed <= 3; seed++ {
		got := run(seed, func(w workload.Deterministic) workload.Source { return &w })
		want := run(seed, func(w workload.Deterministic) workload.Source { return &perTransitionAt{w} })
		late := run(seed, func(w workload.Deterministic) workload.Source { return &chained{w} })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d flow %d:\n  pipe   %+v\n  per-At %+v", seed, i, got[i], want[i])
			}
			if want[i].Retransmits == 0 || want[i].DeliveredBytes == 0 {
				t.Fatalf("seed %d flow %d: no loss or no delivery (%+v); the comparison exercises nothing", seed, i, want[i])
			}
			tiesMatter = tiesMatter || late[i] != want[i]
		}
	}
	if !tiesMatter {
		t.Fatal("vacuous: entering transitions late changed nothing, so none tied with a packet event")
	}
}
