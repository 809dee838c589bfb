package scenario

import (
	"fmt"
	"strings"
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/rng"
	"learnability/internal/units"
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
// place), the on/off sources, their streams and callbacks, the fair-
// share table and the plan's lists are the world's. Every run must
// also equal a fresh build's.
func TestPooledDumbbellRunAllocatesItsResults(t *testing.T) {
	queues := []struct {
		name string
		buf  Buffering
		ecn  bool
	}{
		{"droptail", FiniteDropTail, false},
		{"droptail+ecn", FiniteDropTail, true},
		{"nodrop", NoDrop, false},
		{"codel", CoDelAQM, false},
		{"sfqcodel+ecn", SfqCoDel, true},
	}
	for _, q := range queues {
		t.Run(q.name, func(t *testing.T) {
			const walks = 2
			specs := make([]Spec, walks*len(drawSteps))
			for i := range specs {
				st := drawSteps[i%len(drawSteps)]
				specs[i] = Spec{
					LinkSpeed: st.rate,
					MinRTT:    st.minRTT,
					Buffering: q.buf,
					BufferBDP: st.bdp,
					ECN:       q.ecn,
					MeanOn:    300 * units.Millisecond,
					MeanOff:   200 * units.Millisecond,
					Duration:  2 * units.Second,
					Seed:      rng.New(uint64(100 + i%len(drawSteps))),
				}
				for f := 0; f < 3; f++ {
					specs[i].Senders = append(specs[i].Senders, Sender{Alg: cubic.New(), Delta: 1})
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
				fresh.Senders = []Sender{{Alg: cubic.New(), Delta: 1}, {Alg: cubic.New(), Delta: 1}, {Alg: cubic.New(), Delta: 1}}
				mustEqual(t, label, res, runFresh(fresh))
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
	MustRun(spec(2)) // a second run, with the per-flow tallies installed
	idleWorld(t, spec(3)).Net.Pool.Get()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "books") {
			t.Fatalf("the run after the leak returned %v, want a books panic", r)
		}
	}()
	MustRun(spec(3))
}
