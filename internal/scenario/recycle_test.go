package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/rng"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// drawSteps is a walk of dumbbell draws of one pool key: rates, delays,
// buffer depths and seeds all change from step to step, as they do
// between a trainer's slots.
var drawSteps = []struct {
	rate   units.Rate
	minRTT units.Duration
	bdp    float64
}{
	{24 * units.Mbps, 120 * units.Millisecond, 5},
	{61 * units.Mbps, 150 * units.Millisecond, 1},
	{10 * units.Mbps, 90 * units.Millisecond, 0.5},
	{37 * units.Mbps, 150 * units.Millisecond, 3},
	{95 * units.Mbps, 60 * units.Millisecond, 2},
}

// TestPooledDumbbellRunAllocatesItsResults pins what a recycled world
// keeps: once a walk of draws has grown its world, a second walk over
// the same draws — every run differing from the one before in rates,
// delays, buffer depth, seed and controllers — makes one allocation per
// run, the []Result it returns. The layout, the queue (resized in
// place), the on/off sources, their streams and their entries, the
// links' rate processes, the fair-share table and the plan's lists are
// the world's. That holds under every queue with the default
// exponential sources, with deterministic schedules (each spec's own,
// started for the first time), and with either family of varying link
// rate. Every run must also equal a fresh build's.
func TestPooledDumbbellRunAllocatesItsResults(t *testing.T) {
	cases := []struct {
		name      string
		buf       Buffering
		ecn       bool
		scheduled bool // deterministic schedules instead of the default sources
		vr        VarRate
	}{
		{name: "droptail", buf: FiniteDropTail},
		{name: "droptail+ecn", buf: FiniteDropTail, ecn: true},
		{name: "nodrop", buf: NoDrop},
		{name: "codel", buf: CoDelAQM},
		{name: "sfqcodel+ecn", buf: SfqCoDel, ecn: true},
		{name: "deterministic", buf: FiniteDropTail, scheduled: true},
		{name: "varrate-onoff", buf: FiniteDropTail, vr: varRateOnOff},
		{name: "varrate-markov", buf: CoDelAQM, vr: varRateMarkov},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const walks = 2
			specs := make([]Spec, walks*len(drawSteps))
			for i := range specs {
				st := drawSteps[i%len(drawSteps)]
				specs[i] = Spec{
					LinkSpeed: st.rate,
					MinRTT:    st.minRTT,
					Buffering: c.buf,
					BufferBDP: st.bdp,
					ECN:       c.ecn,
					VarRate:   c.vr,
					MeanOn:    300 * units.Millisecond,
					MeanOff:   200 * units.Millisecond,
					Duration:  2 * units.Second,
					Seed:      rng.New(uint64(100 + i%len(drawSteps))),
				}
				for f := 0; f < 3; f++ {
					snd := Sender{Alg: cubic.New(), Delta: 1}
					if c.scheduled {
						snd.Workload = schedule(uint64(i%len(drawSteps)), f, specs[i].Duration)
					}
					specs[i].Senders = append(specs[i].Senders, snd)
				}
			}
			for i, spec := range specs {
				var res []Result
				allocs := mallocs(func() { res = MustRun(spec) })
				label := fmt.Sprintf("walk %d step %d", i/len(drawSteps), i%len(drawSteps))
				if i >= len(drawSteps) && allocs > 1 {
					t.Errorf("%s: a recycled run made %d allocations, want 1 (its results)", label, allocs)
				}
				fresh := spec
				fresh.Senders = slices.Clone(spec.Senders)
				for f := range fresh.Senders {
					fresh.Senders[f].Alg = cubic.New()
				}
				mustEqual(t, label, res, runFresh(fresh))
			}
		})
	}
}

// The two families of varying link rate, with dwells a few round trips
// long.
var (
	varRateOnOff  = VarRate{Kind: VarRateOnOff, LowFactor: 0.3, MeanHigh: 300 * units.Millisecond, MeanLow: 150 * units.Millisecond}
	varRateMarkov = VarRate{Kind: VarRateMarkov, Factors: []float64{1, 0.5, 2, 0.25}, MeanDwell: 200 * units.Millisecond}
)

// schedule is flow f's deterministic on/off schedule under seed: periods
// of 50 to 500 ms from time zero to the end of a run of length d.
func schedule(seed uint64, f int, d units.Duration) *workload.Deterministic {
	r := rng.New(seed).SplitN("schedule", f)
	w := &workload.Deterministic{}
	for at, on := units.Time(0), true; at < units.Time(d); on = !on {
		w.Transitions = append(w.Transitions, workload.Transition{At: at, On: on})
		at = at.Add(units.Duration(50+r.Intn(450)) * units.Millisecond)
	}
	return w
}

// TestRecycledRunsKeepTheArena: every recurring source of a run — the
// exponential and deterministic on/off sources, AlwaysOn, and both
// families of link-rate process — arms through an entry its world owns
// for good, so over recycled runs of one shape the scheduler's arena
// stays the size the first run left it.
func TestRecycledRunsKeepTheArena(t *testing.T) {
	cases := []struct {
		name string
		set  func(s *Spec, run int)
	}{
		{"exponential", func(*Spec, int) {}},
		{"deterministic", func(s *Spec, run int) {
			for f := range s.Senders {
				s.Senders[f].Workload = schedule(uint64(run), f, s.Duration)
			}
		}},
		{"always-on", func(s *Spec, _ int) {
			for f := range s.Senders {
				s.Senders[f].Workload = workload.AlwaysOn{}
			}
		}},
		{"varrate-onoff", func(s *Spec, _ int) { s.VarRate = varRateOnOff }},
		{"varrate-markov", func(s *Spec, _ int) { s.VarRate = varRateMarkov }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			slots := 0
			for run := 0; run < 4; run++ {
				spec := baseSpec()
				spec.Seed = rng.New(uint64(run + 1))
				spec.LinkSpeed = units.Rate(8+run) * units.Mbps
				spec.Duration = 3 * units.Second
				spec.Senders = []Sender{{Alg: cubic.New(), Delta: 1}, {Alg: cubic.New(), Delta: 1}, {Alg: cubic.New(), Delta: 1}}
				c.set(&spec, run)
				MustRun(spec)
				_, _, n := idleWorld(t, spec).Net.Sched.Peek()
				if run == 0 {
					slots = n
				} else if n != slots {
					t.Fatalf("run %d: the arena grew from %d slots to %d", run, slots, n)
				}
			}
		})
	}
}

// TestBooksCatchALeak shows the end-of-run books check is live under
// go test: a packet taken from an idle world's pool and never returned
// — what a run boundary that discards instead of recycling does — fails
// the next run on that world.
func TestBooksCatchALeak(t *testing.T) {
	spec := func(seed uint64) Spec {
		s := baseSpec()
		s.Seed = rng.New(seed)
		s.Senders = twoCubic()
		return s
	}
	MustRun(spec(1))
	MustRun(spec(2)) // a second run on the same world
	idleWorld(t, spec(3)).Net.Pool.Get()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "books") {
			t.Fatalf("the run after the leak returned %v, want a books panic", r)
		}
	}()
	MustRun(spec(3))
}
