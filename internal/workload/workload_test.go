package workload_test

import (
	"fmt"
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
	w := &workload.OnOff{MeanOn: units.Second, MeanOff: units.Second, Rng: rng.New(1)}
	var states []bool
	workload.NewEntry(s, func(on bool) { states = append(states, on) }).Start(w)
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
	w := &workload.OnOff{MeanOn: 5 * units.Second, MeanOff: 10 * units.Millisecond, Rng: rng.New(2)}
	var onTime units.Duration
	var since units.Time
	on := false
	workload.NewEntry(s, func(o bool) {
		now := s.Now()
		if on {
			onTime += now.Sub(since)
		}
		on = o
		since = now
	}).Start(w)
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
	w := &workload.OnOff{MeanOn: units.Second, MeanOff: 2 * units.Second, Rng: rng.New(3)}
	var onStart units.Time
	var onDur, offDur []float64
	var offStart units.Time
	workload.NewEntry(s, func(on bool) {
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
	}).Start(w)
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

func TestAlwaysOn(t *testing.T) {
	s := sim.New()
	var states []bool
	workload.NewEntry(s, func(on bool) { states = append(states, on) }).Start(workload.AlwaysOn{})
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
	workload.NewEntry(s, func(on bool) { evs = append(evs, ev{s.Now(), on}) }).Start(w)
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
	workload.NewEntry(s, func(bool) { at = append(at, s.Now()) }).Start(w)
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
// of order; and since the entry is the flow's, starting a sorted
// schedule again allocates nothing at all.
func TestDeterministicSortedStartsWithoutCopy(t *testing.T) {
	sorted := &workload.Deterministic{}
	for i := 0; i < 20; i++ {
		sorted.Transitions = append(sorted.Transitions, workload.Transition{At: units.Time(0).Add(units.Duration(i/2) * units.Second), On: i%2 == 0})
	}
	unsorted := &workload.Deterministic{Transitions: slices.Clone(sorted.Transitions)}
	unsorted.Transitions[0], unsorted.Transitions[2] = unsorted.Transitions[2], unsorted.Transitions[0]
	e := workload.NewEntry(sim.New(), func(bool) {})
	start := func(w *workload.Deterministic) float64 {
		return testing.AllocsPerRun(10, func() { e.Start(w) })
	}
	if got, out := start(sorted), start(unsorted); got != out-1 {
		t.Fatalf("starting a sorted schedule made %v allocations, an unsorted one %v: want one fewer", got, out)
	}
	if n := start(sorted); n != 0 {
		t.Fatalf("starting a sorted schedule again made %v allocations, want 0", n)
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
	workload.NewEntry(s, func(bool) {
		fired++
		if s.Len() > 1 {
			t.Fatalf("Len = %d inside transition %d", s.Len(), fired)
		}
	}).Start(w)
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

// The references below are sources as they were before they armed
// through their flow's entry, written against the scheduler: each takes
// the callback a transition is handed and schedules its own events.

// pipePerStart is Deterministic as it was: a sim.Pipe built at every
// start, the whole schedule pushed onto it there.
func pipePerStart(d workload.Deterministic) func(*sim.Scheduler, func(bool)) {
	return func(s *sim.Scheduler, set func(bool)) {
		set(d.InitialOn)
		p := sim.NewPipe(s, set)
		for _, tr := range inTimeOrder(d.Transitions) {
			p.Push(tr.At, tr.On)
		}
	}
}

// perTransitionAt enters every transition of the schedule as its own
// event at start.
func perTransitionAt(d workload.Deterministic) func(*sim.Scheduler, func(bool)) {
	return func(s *sim.Scheduler, set func(bool)) {
		set(d.InitialOn)
		for _, tr := range inTimeOrder(d.Transitions) {
			tr := tr
			s.At(tr.At, func() { set(tr.On) })
		}
	}
}

// chained is what a schedule must not be mistaken for: one event at a
// time as well, but each transition is entered only when the one before
// it fires, so it draws a later insertion number and loses ties it
// should win.
func chained(d workload.Deterministic) func(*sim.Scheduler, func(bool)) {
	return func(s *sim.Scheduler, set func(bool)) {
		set(d.InitialOn)
		ts := inTimeOrder(d.Transitions)
		if len(ts) == 0 {
			return
		}
		var next func()
		next = func() {
			set(ts[0].On)
			if ts = ts[1:]; len(ts) > 0 {
				s.At(ts[0].At, next)
			}
		}
		s.At(ts[0].At, next)
	}
}

// afterChain is OnOff as it was: off at start, and each period's end an
// After entered when the period begins, once the sender has taken the
// transition. early, the variant a test must tell apart, enters it
// before.
func afterChain(w workload.OnOff, early bool) func(*sim.Scheduler, func(bool)) {
	return func(s *sim.Scheduler, set func(bool)) {
		var turn func(on bool) func()
		turn = func(on bool) func() {
			return func() {
				mean := w.MeanOff
				if on {
					mean = w.MeanOn
				}
				d := units.DurationFromSeconds(w.Rng.Exponential(mean.Seconds()))
				if early {
					s.After(d, turn(!on))
					set(on)
					return
				}
				set(on)
				s.After(d, turn(!on))
			}
		}
		turn(false)()
	}
}

// legacy runs a reference on a flow's entry: it hands the reference the
// entry's Set and pushes nothing itself.
type legacy struct {
	s     *sim.Scheduler
	start func(*sim.Scheduler, func(bool))
}

func (l legacy) Start(e *workload.Entry)   { l.start(l.s, e.Set) }
func (legacy) Fired(*workload.Entry, bool) {}

// TestDeterministicMatchesPerTransitionAt runs two Cubic flows over a
// 12 Mbps dumbbell (1 ms per packet, 50 ms each way, so every packet
// event lands on a 1 ms grid) under on/off schedules on the same grid
// with most periods shorter than the propagation delay, and requires the
// flows' stats to be equal, field for field, to the run in which every
// transition was its own At and to the run in which a pipe was built
// per start. The chained source shows the ties are real: it differs
// only in the insertion numbers its transitions draw, and that moves
// the result.
func TestDeterministicMatchesPerTransitionAt(t *testing.T) {
	run := func(seed uint64, ref func(workload.Deterministic) func(*sim.Scheduler, func(bool))) []netsim.FlowStats {
		const rate, rtt = 12 * units.Mbps, 100 * units.Millisecond
		nw := netsim.New()
		link := nw.NewLink(rate, rtt/2, queue.NewDropTail(20*packet.MTU))
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
			rcv := nw.NewReceiver(i, rtt/2, st)
			snd := netsim.NewSender(nw.Sched, i, cubic.New(), link, st)
			rcv.SetSender(snd)
			next[i] = rcv
			var src workload.Source = &w
			if ref != nil {
				src = legacy{nw.Sched, ref(w)}
			}
			nw.AddFlow(&netsim.Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: src})
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
		got := run(seed, nil)
		want := run(seed, perTransitionAt)
		old := run(seed, pipePerStart)
		late := run(seed, chained)
		for i := range want {
			if got[i] != want[i] || old[i] != want[i] {
				t.Fatalf("seed %d flow %d:\n  entry    %+v\n  per-At   %+v\n  old pipe %+v", seed, i, got[i], want[i], old[i])
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

// stepWorld is a few flows' on/off sources on one scheduler beside
// one-shot events on the same 1 ns grid — each transition sets off a
// few, as a sender's packets would, some at the same instant — driven
// one step at a time. Every decision is drawn from the world's own
// stream, so two worlds that fire the same events in the same order
// draw the same decisions. log holds one line per fired event: its
// time, its insertion number and what it was.
type stepWorld struct {
	s    *sim.Scheduler
	r    rng.Stream
	log  []string
	seq  uint64 // insertion number of the event being fired
	last units.Time
	ties int // transitions at the instant of the event before them
}

func (w *stepWorld) note(what string) {
	now := w.s.Now()
	w.log = append(w.log, fmt.Sprintf("t=%d seq=%d %s", now, w.seq, what))
	w.last = now
}

// set is flow f's transition callback.
func (w *stepWorld) set(f int) func(bool) {
	return func(on bool) {
		if len(w.log) > 0 && w.s.Now() == w.last {
			w.ties++
		}
		w.note(fmt.Sprintf("flow %d on=%v", f, on))
		w.react(f)
	}
}

// react schedules up to two of flow f's packet events over the next
// few instants, each of which reacts again half the time.
func (w *stepWorld) react(f int) {
	for n := w.r.Intn(3); n > 0; n-- {
		w.s.After(units.Duration(w.r.Intn(4)), func() {
			w.note(fmt.Sprintf("flow %d packet", f))
			if w.r.Intn(2) == 0 {
				w.react(f)
			}
		})
	}
}

// run steps the world until its next event would fire after end.
func (w *stepWorld) run(end units.Time) {
	for {
		at, seq, _ := w.s.Peek()
		if at > end {
			return
		}
		w.seq = seq
		w.s.Step()
	}
}

// stepEnd is how long a stepWorld runs: about a thousand transitions a
// flow under the sources below.
const stepEnd = units.Time(2000)

// gridSchedule draws a schedule on the 1 ns grid, several transitions at
// some instants, given out of time order.
func gridSchedule(r *rng.Stream) workload.Deterministic {
	d := workload.Deterministic{InitialOn: r.Intn(2) == 0}
	on := !d.InitialOn
	for at := units.Time(r.Intn(3)); at < stepEnd+10; at = at.Add(units.Duration(r.Intn(4))) {
		d.Transitions = append(d.Transitions, workload.Transition{At: at, On: on})
		on = !on
	}
	for i := range d.Transitions {
		if j := i + r.Intn(8); j < len(d.Transitions) {
			d.Transitions[i], d.Transitions[j] = d.Transitions[j], d.Transitions[i]
		}
	}
	return d
}

// stepFlows draws the four flows' sources of a seed: two schedules, an
// OnOff whose periods are a few nanoseconds, so they end on the grid,
// and AlwaysOn. The OnOff's stream is fresh on every call.
func stepFlows(seed uint64) (schedules [2]workload.Deterministic, onOff workload.OnOff) {
	r := rng.New(seed).Split("schedules")
	schedules[0], schedules[1] = gridSchedule(r), gridSchedule(r)
	onOff = workload.OnOff{MeanOn: 3, MeanOff: 2, Rng: rng.New(seed).Split("onoff")}
	return schedules, onOff
}

// referenceLog runs the seed's flows on the references, a schedule's
// and an OnOff's given, on a fresh scheduler.
func referenceLog(seed uint64, schedule func(workload.Deterministic) func(*sim.Scheduler, func(bool)), early bool) ([]string, int) {
	w := &stepWorld{s: sim.New(), r: *rng.New(seed).Split("world")}
	ds, oo := stepFlows(seed)
	schedule(ds[0])(w.s, w.set(0))
	afterChain(oo, early)(w.s, w.set(1))
	w.set(2)(true) // AlwaysOn
	schedule(ds[1])(w.s, w.set(3))
	w.run(stepEnd)
	return w.log, w.ties
}

// TestEntriesMatchOldSources drives the sources through their flows'
// entries beside the references they replaced — a pipe built per start
// for a schedule, an After chain for OnOff — over random schedules and
// few-nanosecond periods on a grid where events tie, and requires the
// fired (time, insertion number, what) sequences to be identical. Each
// seed runs three times on one world, recycled as a pooled network is:
// the scheduler reset mid-schedule and every entry started again; the
// scheduler's arena must not grow after the first run. The late
// variants — a schedule entered one transition at a time, an OnOff that
// enters a period's end before the sender takes its start — must differ,
// which shows the ties decide the order.
func TestEntriesMatchOldSources(t *testing.T) {
	ties, lateDiffers, earlyDiffers := 0, false, false
	for seed := uint64(1); seed <= 4; seed++ {
		want, n := referenceLog(seed, pipePerStart, false)
		ties += n
		late, _ := referenceLog(seed, chained, false)
		early, _ := referenceLog(seed, pipePerStart, true)
		lateDiffers = lateDiffers || !slices.Equal(late, want)
		earlyDiffers = earlyDiffers || !slices.Equal(early, want)

		w := &stepWorld{s: sim.New()}
		var es [4]*workload.Entry
		for f := range es {
			es[f] = workload.NewEntry(w.s, w.set(f))
		}
		slots := 0
		for round := 0; round < 3; round++ {
			if round > 0 {
				w.s.Reset()
			}
			w.r, w.log, w.seq, w.last = *rng.New(seed).Split("world"), w.log[:0], 0, 0
			ds, oo := stepFlows(seed)
			es[0].Start(&ds[0])
			es[1].Start(&oo)
			es[2].Start(workload.AlwaysOn{})
			es[3].Start(&ds[1])
			w.run(stepEnd)
			if !slices.Equal(w.log, want) {
				for i := range min(len(w.log), len(want)) {
					if w.log[i] != want[i] {
						t.Fatalf("seed %d round %d: event %d is %q, the reference's %q", seed, round, i, w.log[i], want[i])
					}
				}
				t.Fatalf("seed %d round %d: %d events, the reference %d", seed, round, len(w.log), len(want))
			}
			if _, _, n := w.s.Peek(); round == 0 {
				slots = n
			} else if n != slots {
				t.Fatalf("seed %d round %d: the arena grew from %d slots to %d", seed, round, slots, n)
			}
		}
	}
	if ties < 1000 || !lateDiffers || !earlyDiffers {
		t.Fatalf("vacuous: %d transitions tied with the event before them; late schedule differs %v, early OnOff differs %v",
			ties, lateDiffers, earlyDiffers)
	}
	t.Logf("%d transitions tied with the event before them", ties)
}
