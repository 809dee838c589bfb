package scenario

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/netsim"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/topo"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// Differential tests for world recycling: a Run executed on a network
// recycled from the world pool (scheduler arena, packet free lists,
// and per-flow rings warmed by an earlier, generally unrelated run)
// must produce results bit-identical to a fresh build. The variants
// reuse pooledVariants, which covers every packet end-of-life path.

// mustBuild is Build for the tests' known-valid specs.
func mustBuild(spec Spec) (*netsim.Network, []queue.Discipline) {
	nw, queues, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return nw, queues
}

// runFresh runs the spec on a freshly built world: Build + Finish
// never touch the pool.
func runFresh(spec Spec) []Result {
	nw, _ := mustBuild(spec)
	return Finish(spec, nw)
}

// mustEqual compares two result slices flow by flow.
func mustEqual(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: result counts differ: %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s flow %d: recycled %+v != fresh %+v", label, i, got[i], want[i])
		}
	}
}

// TestRecycledWorldMatchesFresh proves world recycling is behaviorally
// invisible: after a warm-up run has stocked the pool, a recycled run
// is bit-identical to a fresh build for the same seed, across shapes,
// queue disciplines, and algorithms.
func TestRecycledWorldMatchesFresh(t *testing.T) {
	for name, mk := range pooledVariants() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				// Stock the pool; the next same-shape Run recycles.
				MustRun(mk(seed))
				got := MustRun(mk(seed))
				mustEqual(t, name, got, runFresh(mk(seed)))
			}
		})
	}
}

// TestWorldReuseAcrossSpecs recycles a world across *different* specs
// of the same shape — a drop-tail Cubic run's world hosting an
// sfqCoDel run, then a RemyCC run — the reuse pattern the trainer's
// evaluation loop produces. Each recycled run must match a fresh
// build: nothing of the previous spec (queue, algorithm, buffer
// sizing) may leak through the reused components.
func TestWorldReuseAcrossSpecs(t *testing.T) {
	mks := pooledVariants()
	// All three are two-sender dumbbells, so they share a pool bucket.
	MustRun(mks["cubic-droptail"](11))
	got := MustRun(mks["sfqcodel-aqm-drops"](12))
	mustEqual(t, "sfqcodel after cubic", got, runFresh(mks["sfqcodel-aqm-drops"](12)))

	got = MustRun(mks["remycc-dumbbell"](13))
	mustEqual(t, "remycc after sfqcodel", got, runFresh(mks["remycc-dumbbell"](13)))
}

// fabricSpec is the benchmark's fat-tree op: a k=4 pod-crossing
// permutation (96 links, 16 flows) at 32 Mbps and 20 ms under the
// given routing policy and gateway queue.
func fabricSpec(routing topo.RoutingPolicy, buf Buffering, ecn bool, alg func() cc.Algorithm, seed uint64) Spec {
	t := FatTreeTopology(4, routing)
	spec := Spec{
		Topology:  t,
		LinkSpeed: 32 * units.Mbps,
		MinRTT:    20 * units.Millisecond,
		Buffering: buf,
		BufferBDP: 5,
		ECN:       ecn,
		MeanOn:    200 * units.Millisecond,
		MeanOff:   200 * units.Millisecond,
		Duration:  units.Second,
		Seed:      rng.New(seed),
	}
	for i := 0; i < t.FlowCount(0); i++ {
		spec.Senders = append(spec.Senders, Sender{Alg: alg(), Delta: 1})
	}
	return spec
}

// idleWorld is the world the next Run of the spec will take.
func idleWorld(t *testing.T, spec Spec) *topo.World {
	t.Helper()
	k, err := spec.worldKey()
	if err != nil {
		t.Fatal(err)
	}
	runPool.mu.Lock()
	defer runPool.mu.Unlock()
	ws := runPool.worlds[k]
	if len(ws) == 0 {
		t.Fatalf("no idle world for %+v", k)
	}
	return ws[len(ws)-1].World
}

// TestWorldPoolFlips drives one 96-link world through the benchmark's
// own order — ECMP, Spray, Adaptive, each over drop-tail, sfqCoDel and
// CoDel+ECN, two algorithms apiece — then through a change of marking
// mode on a kept queue, and all the way back, and requires every run
// to equal a new world's in every flow's statistics, every link's
// packet counts and every queue's counters, not only in the Results.
// The pool keeps a world per discipline and policy, so the test hands
// the one world to every spec itself, through the path Run takes
// (Spec.host, topo.World.Rebuild). What it catches: next-hop tables
// kept across a routes or policy change, spray cursors that carry
// over, and a kept queue with the last run's recorder, marking mode,
// bins or CoDel drop schedule.
func TestWorldPoolFlips(t *testing.T) {
	type step struct {
		routing topo.RoutingPolicy
		buf     Buffering
		ecn     bool
		alg     func() cc.Algorithm
	}
	var steps []step
	for _, r := range []topo.RoutingPolicy{topo.ECMP, topo.Spray, topo.Adaptive} {
		for _, q := range []struct {
			buf Buffering
			ecn bool
		}{{FiniteDropTail, false}, {SfqCoDel, false}, {CoDelAQM, true}} {
			steps = append(steps,
				step{r, q.buf, q.ecn, func() cc.Algorithm { return cubic.New() }},
				step{r, q.buf, q.ecn, func() cc.Algorithm { return newreno.New() }})
		}
	}
	// The same queue kept across a change of marking mode, both ways.
	alg := func() cc.Algorithm { return cubic.New() }
	steps = append(steps,
		step{topo.Adaptive, SfqCoDel, false, alg},
		step{topo.Adaptive, SfqCoDel, true, alg},
		step{topo.Adaptive, CoDelAQM, false, alg},
		step{topo.Adaptive, CoDelAQM, true, alg})
	for i := len(steps) - 2; i >= 0; i-- {
		steps = append(steps, steps[i])
	}

	w := new(world)
	var kept, compiled int
	for i, st := range steps {
		mk := func() Spec { return fabricSpec(st.routing, st.buf, st.ecn, st.alg, uint64(100+i)) }
		label := fmt.Sprintf("step %d (%v, buffering %d, ecn %v)", i, st.routing, st.buf, st.ecn)

		var before []queue.Discipline
		if w.World != nil {
			for _, l := range w.Net.Links {
				before = append(before, l.Queue())
			}
		}
		run := mk()
		lay, err := run.plan(w)
		if err != nil {
			t.Fatal(err)
		}
		prev := w.World
		if err = run.host(w, lay); err != nil {
			t.Fatal(err)
		}
		if prev != nil && w.World != prev {
			t.Fatalf("%s ran on another world", label)
		}
		got := finish(run, w.Net, w.FairShares(lay))
		if before != nil && before[0] == w.Net.Links[0].Queue() {
			kept++
		}
		if i > 0 && steps[i-1].routing != st.routing {
			compiled++
		}

		spec := mk()
		fresh, queues := mustBuild(spec)
		mustEqual(t, label, got, Finish(spec, fresh))
		for f := range fresh.Flows {
			if *w.Net.Flows[f].Stats != *fresh.Flows[f].Stats {
				t.Fatalf("%s flow %d: recycled %+v != fresh %+v", label, f, *w.Net.Flows[f].Stats, *fresh.Flows[f].Stats)
			}
		}
		var marks, drops int64
		for li, l := range fresh.Links {
			in, out := l.Counts()
			if rin, rout := w.Net.Links[li].Counts(); rin != in || rout != out || w.Net.Links[li].InFlight() != l.InFlight() {
				t.Fatalf("%s link %d: recycled in/out/in-flight %d/%d/%d != fresh %d/%d/%d",
					label, li, rin, rout, w.Net.Links[li].InFlight(), in, out, l.InFlight())
			}
			if rst, st := w.Net.Links[li].Queue().Stats(), queues[li].Stats(); rst != st {
				t.Fatalf("%s link %d queue: recycled %+v != fresh %+v", label, li, rst, st)
			}
			marks += queues[li].Stats().MarksECN
			drops += queues[li].Stats().Drops()
		}
		if st.ecn && marks == 0 || !st.ecn && drops == 0 {
			t.Fatalf("%s: %d marks, %d drops: the queues were never stressed", label, marks, drops)
		}
	}
	if kept < len(steps)/2-1 || compiled != 4 {
		t.Fatalf("%d of %d runs kept their queues, %d changed policy: the order no longer exercises both", kept, len(steps), compiled)
	}
}

// TestWorldKeepsRouteTables pins the other half of the contract: the
// same routes under the same policy are not compiled again, and a
// different placement under the same policy is.
func TestWorldKeepsRouteTables(t *testing.T) {
	alg := func() cc.Algorithm { return cubic.New() }
	first := fabricSpec(topo.Spray, FiniteDropTail, false, alg, 1)
	MustRun(first)
	w := idleWorld(t, first)
	uplink := w.Net.Links[0] // host 0's, where flow 0 picks its aggregation switch
	if uplink.Fanout(0) != 2 {
		t.Fatalf("flow 0 has %d candidates at its uplink, want the pod's 2 aggregation switches", uplink.Fanout(0))
	}
	allocs := testing.AllocsPerRun(1, func() { MustRun(fabricSpec(topo.Spray, FiniteDropTail, false, alg, 2)) })
	if idleWorld(t, first) != w {
		t.Fatal("rerun took another world")
	}
	// A recompile makes a table per link and a candidate set per
	// fan-out point, some 500 allocations on top of the run's own.
	if allocs > fabricRunAllocs {
		t.Fatalf("a rerun with unchanged routes made %v allocations, budget %d", allocs, fabricRunAllocs)
	}

	// Same shape and policy, other routes: host 0 now sends to host 1,
	// under its own edge switch, so its uplink hands to that switch's
	// downlink instead of an aggregation uplink.
	ft, err := topo.FatTree(4, 32*units.Mbps, topo.FatTreeDelays{Host: units.Millisecond, Pod: units.Millisecond, Core: units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < ft.Hosts(); h++ {
		if _, err := ft.AddFlow(h, h^1); err != nil {
			t.Fatal(err)
		}
	}
	ft.G.Routing = topo.Spray
	spec := fabricSpec(topo.Spray, FiniteDropTail, false, alg, 3)
	spec.Topology = GraphTopology(&ft.G)
	got := MustRun(spec)
	if idleWorld(t, spec) != w {
		t.Fatal("graph run took another world")
	}
	if uplink.NextHop(0) != netsim.Deliverer(w.Net.Links[ft.HostDownlink(1)]) {
		t.Fatal("flow 0's uplink still routes along the permutation's path")
	}
	mustEqual(t, "neighbour placement", got, runFresh(spec))
}

// fabricRunAllocs is the allocation budget of one pooled k=4 fat-tree
// Run whose world already holds this spec's queues and routes: ≈ 31–35,
// nearly all of it what fabricSpec builds inside the counted call — 16
// controllers, the sender list and the seed stream — and the rest the
// results. The layout, the gateway queues, the on/off sources, the
// next-hop tables and the packet population contribute nothing:
// rebuilding the 96 queues or recompiling the tables would each cost at
// least one allocation per link on top. It was ≈ 130 while every run
// made its own on/off sources, layout edges, graph check and fair-share
// table, 400 while every layout rebuilt its 96-edge graph and 16
// routes, and ≈ 110 000 with sfqCoDel before the fabric hot path was
// flattened.
const fabricRunAllocs = 50

// TestPooledFabricRunAllocationBudget holds a pooled fat-tree Run to
// that budget under every gateway queue, and then along eval-fabric's
// own order: three routing policies, each over drop-tail, sfqCoDel and
// CoDel+ECN, two algorithms apiece. The first walk stocks the pool with
// a world per discipline and policy; on the second, every run must take
// the world the same key left, keep all of its queues and stay within
// the budget, which a route-table recompile would break.
func TestPooledFabricRunAllocationBudget(t *testing.T) {
	queues := []struct {
		name string
		buf  Buffering
		ecn  bool
	}{{"droptail", FiniteDropTail, false}, {"sfqcodel", SfqCoDel, false}, {"codel+ecn", CoDelAQM, true}}
	for _, q := range queues {
		t.Run(q.name, func(t *testing.T) {
			spec := func(seed uint64) Spec {
				return fabricSpec(topo.Adaptive, q.buf, q.ecn, func() cc.Algorithm { return cubic.New() }, seed)
			}
			// Two runs grow the world's rings to the working set.
			MustRun(spec(1))
			MustRun(spec(2))
			seed := uint64(3)
			allocs := testing.AllocsPerRun(3, func() {
				MustRun(spec(seed))
				seed++
			})
			if allocs > fabricRunAllocs {
				t.Fatalf("a pooled fat-tree run makes %v allocations, budget %d", allocs, fabricRunAllocs)
			}
			t.Logf("%v allocations per pooled run", allocs)
		})
	}
	t.Run("eval-fabric-order", func(t *testing.T) {
		algs := []func() cc.Algorithm{
			func() cc.Algorithm { return cubic.New() },
			func() cc.Algorithm { return newreno.New() },
		}
		for walk := 0; walk < 2; walk++ {
			op := 0
			for _, r := range []topo.RoutingPolicy{topo.ECMP, topo.Spray, topo.Adaptive} {
				for _, q := range queues {
					for _, alg := range algs {
						op++
						spec := func() Spec { return fabricSpec(r, q.buf, q.ecn, alg, uint64(op)) }
						if walk == 0 {
							MustRun(spec())
							continue
						}
						label := fmt.Sprintf("second walk, %v/%s op %d", r, q.name, op)
						w := idleWorld(t, spec())
						var kept []queue.Discipline
						for _, l := range w.Net.Links {
							kept = append(kept, l.Queue())
						}
						allocs := mallocs(func() { MustRun(spec()) })
						if idleWorld(t, spec()) != w {
							t.Fatalf("%s: the run took another world", label)
						}
						for li, l := range w.Net.Links {
							if l.Queue() != kept[li] {
								t.Fatalf("%s: link %d got a new queue", label, li)
							}
						}
						if allocs > fabricRunAllocs {
							t.Fatalf("%s: %v allocations, budget %d", label, allocs, fabricRunAllocs)
						}
					}
				}
			}
		}
	})
}

// mallocs counts the heap allocations of one call of f. Unlike
// testing.AllocsPerRun it runs f once, with no warm-up call that could
// do the rebuilding the count is meant to catch.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSharedSkeletonRunsConcurrently runs k=4 permutation fat trees —
// one skeleton — from four goroutines at once, at different link speeds
// and propagation delays and under different routing policies, and
// requires every result to equal Build+Finish of the same spec (which
// lays out from the same skeleton). Run
// under -race it also shows that layouts only read the shared routes;
// afterwards the skeleton must still equal a new one.
func TestSharedSkeletonRunsConcurrently(t *testing.T) {
	routings := []topo.RoutingPolicy{topo.ECMP, topo.Spray, topo.Adaptive, topo.Spray}
	spec := func(g, i int) Spec {
		s := fabricSpec(routings[g], FiniteDropTail, false, func() cc.Algorithm { return cubic.New() }, uint64(10*g+i))
		s.LinkSpeed = units.Rate(8*(g+1)) * units.Mbps
		s.MinRTT = units.Duration(12*(g+1)) * units.Millisecond
		if g == 3 {
			s.LinkSpeeds = []units.Rate{units.Mbps, 0, 2 * units.Mbps} // hosts 0 and 1's uplinks slower
		}
		return s
	}
	sa, sb := spec(0, 0), spec(3, 0)
	a, _ := sa.Layout()
	b, _ := sb.Layout()
	if &a.Routes[0] != &b.Routes[0] || &a.Edges[0] == &b.Edges[0] || a.Edges[0] == b.Edges[0] {
		t.Fatal("two layouts of one skeleton do not share their routes, or share their edges")
	}

	const goroutines, runs = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got, err := Run(spec(g, i))
				if err != nil {
					t.Error(err)
					return
				}
				if want := runFresh(spec(g, i)); !slices.Equal(got, want) {
					t.Errorf("goroutine %d run %d (%v): pooled %+v != fresh %+v", g, i, routings[g], got, want)
					return
				}
				if !slices.ContainsFunc(got, func(r Result) bool { return r.Throughput > 0 }) {
					t.Errorf("goroutine %d run %d delivered nothing", g, i)
				}
			}
		}()
	}
	wg.Wait()

	sk, err := runPool.skeleton(FatTreeTopology(4, topo.ECMP))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newSkeleton(FatTreeTopology(4, topo.ECMP))
	if err != nil {
		t.Fatal(err)
	}
	if sk.edges != fresh.edges || !reflect.DeepEqual(sk.routes, fresh.routes) {
		t.Fatal("the shared skeleton was written to")
	}
}

// TestFabricHeapBound pins the event core's O(distinct delays + flows)
// claim on the k=4 ADAPTIVE fat tree as a count: all 96 links schedule
// through the lanes of their one serialization time and one hop delay
// and all 16 reverse paths through a third, and a flow adds an RTO, a
// pacing timer and an on/off switch — however many packets are in
// flight, and however many on/off transitions a fixed schedule still has
// ahead of it (one entry per transition put the second case over an
// earlier bound). The second clause shows the count means something: the
// run had more packets in the network than the scheduler ever held
// entries.
func TestFabricHeapBound(t *testing.T) {
	exponential := func(*Spec) {}
	scheduled := func(spec *Spec) {
		for i := range spec.Senders {
			w := &workload.Deterministic{}
			for k := 0; k < 20; k++ { // on 80 ms, off 10 ms, staggered by flow
				at := units.Time(0).Add(units.Duration(90*(k/2)+80*(k%2)+i) * units.Millisecond)
				w.Transitions = append(w.Transitions, workload.Transition{At: at, On: k%2 == 0})
			}
			spec.Senders[i].Workload = w
		}
	}
	for _, tc := range []struct {
		name      string
		workloads func(*Spec)
	}{{"exponential", exponential}, {"scheduled", scheduled}} {
		spec := fabricSpec(topo.Adaptive, FiniteDropTail, false, func() cc.Algorithm { return cubic.New() }, 1)
		tc.workloads(&spec)
		nw, _ := mustBuild(spec)
		peak := 0
		spec.ProbeInterval = units.Millisecond
		spec.Probe = func(units.Time) {
			n := 0
			for _, l := range nw.Links {
				n += l.InFlight()
			}
			peak = max(peak, n)
		}
		Finish(spec, nw)
		// +1: the probe's own event.
		hw, bound := nw.Sched.HighWater(), nw.Lanes()+3*len(nw.Flows)+1
		if nw.Lanes() != 3 || hw > bound {
			t.Fatalf("%s: %d lanes, heap high-water %d; want 3 lanes and ≤ lanes + 3·flows + 1 = %d", tc.name, nw.Lanes(), hw, bound)
		}
		if peak <= hw {
			t.Fatalf("%s: at most %d packets in the network against a heap high-water of %d: the bound was never tested", tc.name, peak, hw)
		}
		t.Logf("%s on/off: heap high-water %d (bound %d) with %d links on %d lanes, %d packets in the network at peak",
			tc.name, hw, bound, len(nw.Links), nw.Lanes(), peak)
	}
}
