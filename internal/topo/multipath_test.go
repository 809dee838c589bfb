package topo

// Multipath property tests: fanout-1 routes compiled through the
// multipath tables behave bit-identically to the classic static-path
// compilation, ECMP is path-stable packet by packet, and per-link /
// per-flow packet conservation holds under per-packet spraying and
// adaptive selection on random fat-trees with random incast patterns.

import (
	"testing"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/netsim"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// testFatTree builds a k-ary fat-tree fabric at 20 Mbps with 2 ms
// per-hop delays, fails the test on error.
func testFatTree(t *testing.T, k int) *FatTreeNet {
	t.Helper()
	ft, err := FatTree(k, 20*units.Mbps, FatTreeDelays{
		Host: 2 * units.Millisecond, Pod: 2 * units.Millisecond, Core: 2 * units.Millisecond,
	})
	if err != nil {
		t.Fatalf("FatTree(%d): %v", k, err)
	}
	return ft
}

// buildAndRun compiles the graph with deterministic queues, fixed-
// window controllers, and seeded workloads, runs it for dur, and
// returns the network plus final stats.
func buildAndRun(t *testing.T, g *Graph, seed uint64, dur units.Duration) (*netsim.Network, []*netsim.FlowStats) {
	t.Helper()
	queues := make([]queue.Discipline, len(g.Edges))
	for i := range queues {
		queues[i] = queue.NewDropTail(20 * 1500)
	}
	flows := make([]FlowSpec, len(g.Routes))
	for f := range flows {
		flows[f] = FlowSpec{
			Alg:      &fixedCC{w: 12},
			Workload: &workload.OnOff{MeanOn: units.Second, MeanOff: units.Second / 2, Rng: rng.New(seed).SplitN("wl", f)},
		}
	}
	nw, err := build(g, queues, flows)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return nw, nw.Run(dur)
}

// stripAlts returns a deep copy of g with every route reduced to its
// primary path — the classic single-path description of the same
// topology.
func stripAlts(g *Graph) *Graph {
	out := &Graph{Edges: append([]Edge(nil), g.Edges...), Routing: g.Routing}
	for _, rt := range g.Routes {
		out.Routes = append(out.Routes, Route{Links: rt.Links, Reverse: rt.Reverse})
	}
	return out
}

// TestFanoutOneMultipathBitIdentical asserts the no-behavior-change
// property: a fat-tree whose routes carry no alternates runs
// bit-identically under every routing policy (fanout-1 entries never
// consult the policy), and duplicated alternates (which dedup back to
// fanout 1 at every hop) change nothing either.
func TestFanoutOneMultipathBitIdentical(t *testing.T) {
	ft := testFatTree(t, 4)
	if err := ft.AddIncast(0, 3); err != nil {
		t.Fatalf("incast: %v", err)
	}

	base := stripAlts(&ft.G) // classic static-path compilation
	_, want := buildAndRun(t, base, 7, 5*units.Second)

	for name, g := range map[string]*Graph{
		"spray no alts":    {Edges: base.Edges, Routes: base.Routes, Routing: Spray},
		"adaptive no alts": {Edges: base.Edges, Routes: base.Routes, Routing: Adaptive},
		"spray dup alts": {Edges: base.Edges, Routing: Spray, Routes: func() []Route {
			rts := make([]Route, len(base.Routes))
			for f, rt := range base.Routes {
				rts[f] = Route{Links: rt.Links, Alts: [][]int{rt.Links}}
			}
			return rts
		}()},
	} {
		_, got := buildAndRun(t, g, 7, 5*units.Second)
		for f := range want {
			if *got[f] != *want[f] {
				t.Fatalf("%s: flow %d diverged from static compilation:\n%+v\n%+v", name, f, *got[f], *want[f])
			}
		}
	}
	if want[0].SentPackets == 0 {
		t.Fatal("no traffic; bit-identity run is vacuous")
	}
}

// walkPath follows flow f's compiled single next hops from its first
// link to its receiver, returning the link indices visited. Fails if
// any hop has fanout != 1 or the walk doesn't terminate within the
// fabric diameter.
func walkPath(t *testing.T, g *Graph, nw *netsim.Network, f int) []int {
	t.Helper()
	cur := g.Routes[f].Links[0]
	var path []int
	for range make([]struct{}, 8) {
		path = append(path, cur)
		l := nw.Links[cur]
		if n := l.Fanout(f); n != 1 {
			t.Fatalf("flow %d: link %d has fanout %d under ECMP (want 1)", f, cur, n)
		}
		d := l.NextHop(f)
		if d == netsim.Deliverer(nw.Flows[f].Receiver) {
			return path
		}
		next := -1
		for j, cand := range nw.Links {
			if netsim.Deliverer(cand) == d {
				next = j
				break
			}
		}
		if next < 0 {
			t.Fatalf("flow %d: link %d forwards to an unknown hop", f, cur)
		}
		cur = next
	}
	t.Fatalf("flow %d: walk exceeded the fabric diameter", f)
	return nil
}

// TestECMPPathStable asserts ECMP's compile-time hash leaves every
// (link, flow) pair with exactly one next hop, that the chosen walk is
// one of the route's declared paths, that two independent builds choose
// identical walks, and — at packet level — that a run puts traffic only
// on the chosen walk (every off-walk link sees zero packets of the
// flow).
func TestECMPPathStable(t *testing.T) {
	ft := testFatTree(t, 4)
	if err := ft.AddPermutation(); err != nil {
		t.Fatalf("permutation: %v", err)
	}
	ft.G.Routing = ECMP
	g := &ft.G

	nw, _ := buildAndRun(t, g, 11, 0) // built, not yet run
	walks := make([][]int, len(g.Routes))
	for f := range g.Routes {
		walks[f] = walkPath(t, g, nw, f)
		// The walk must be one of the flow's declared paths.
		match := false
		for pi := 0; pi < g.Routes[f].numPaths(); pi++ {
			path := g.Routes[f].path(pi)
			if len(path) != len(walks[f]) {
				continue
			}
			same := true
			for i := range path {
				if path[i] != walks[f][i] {
					same = false
					break
				}
			}
			if same {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("flow %d: ECMP walk %v is not a declared path", f, walks[f])
		}
	}

	// A second build must compile the same choices (the hash is pure).
	nw2, _ := buildAndRun(t, g, 11, 0)
	for f := range g.Routes {
		w2 := walkPath(t, g, nw2, f)
		if len(w2) != len(walks[f]) {
			t.Fatalf("flow %d: rebuild changed the ECMP walk: %v vs %v", f, walks[f], w2)
		}
		for i := range w2 {
			if w2[i] != walks[f][i] {
				t.Fatalf("flow %d: rebuild changed the ECMP walk: %v vs %v", f, walks[f], w2)
			}
		}
	}

	// Packet level: tally per-flow traffic on every link, run, and
	// assert flows only ever touched their walk.
	nf := len(g.Routes)
	tin := make([][]int64, len(nw.Links))
	for li, l := range nw.Links {
		tin[li] = make([]int64, nf)
		l.SetFlowTally(tin[li], make([]int64, nf))
	}
	sts := nw.Run(5 * units.Second)
	onWalk := make([]map[int]bool, nf)
	for f, w := range walks {
		onWalk[f] = make(map[int]bool, len(w))
		for _, li := range w {
			onWalk[f][li] = true
		}
	}
	var total int64
	for li := range nw.Links {
		for f := 0; f < nf; f++ {
			total += tin[li][f]
			if tin[li][f] > 0 && !onWalk[f][li] {
				t.Fatalf("flow %d: %d packets strayed onto link %d, off its ECMP walk %v",
					f, tin[li][f], li, walks[f])
			}
		}
	}
	if total == 0 || sts[0].SentPackets == 0 {
		t.Fatal("no traffic; path-stability run is vacuous")
	}
	// And the hash must actually spread flows: with 16 pod-crossing
	// flows over 4 paths each, at least two distinct aggregation
	// uplinks must carry traffic (all-one-spine would defeat ECMP).
	spines := make(map[int]bool)
	for f, w := range walks {
		if len(w) == 6 {
			spines[w[2]] = true
		}
		_ = f
	}
	if len(spines) < 2 {
		t.Fatalf("ECMP hash collapsed every flow onto %d aggregation uplink(s)", len(spines))
	}
}

// TestRandomFatTreeMultipathConservation extends the random-graph
// conservation property to multipath: on random fat-trees with random
// incast patterns under ECMP, SPRAY and ADAPTIVE, over drop-tail and
// sfqCoDel gateways, every link individually conserves packets (in ==
// out + dropped + in-flight), every flow individually conserves
// packets (sent == arrived + stranded inside links), the whole run
// replays bit-identically, and every sfqCoDel's packet counter equals
// what emptying its bins actually yields.
func TestRandomFatTreeMultipathConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("property test with many simulations")
	}
	const trials = 12
	var sfqDrops int64
	busyLinks := 0 // links seen holding packets at a sampled instant
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial) + 0xf1
		r := rng.New(seed)
		k := 4
		if r.Intn(3) == 0 {
			k = 6
		}
		policy := []RoutingPolicy{ECMP, Spray, Adaptive}[trial%3]
		sfq := trial/3%2 == 1
		ft := testFatTree(t, k)
		hosts := ft.Hosts()
		n := 2 + r.Intn(5)
		dst := r.Intn(hosts)
		if err := ft.AddIncast(dst, n); err != nil {
			t.Fatalf("trial %d: incast(%d,%d): %v", trial, dst, n, err)
		}
		ft.G.Routing = policy
		// Jitter rates so queues actually build and drop.
		for i := range ft.G.Edges {
			ft.G.Edges[i].Rate = units.Rate(5+r.Intn(20)) * units.Mbps
		}
		g := &ft.G

		mk := func() (*netsim.Network, [][]int64, [][]int64) {
			rq := rng.New(seed).Split("queues")
			queues := make([]queue.Discipline, len(g.Edges))
			for i := range queues {
				if capBytes := (2 + rq.Intn(30)) * 1500; sfq {
					queues[i] = queue.NewSFQCoDel(queue.SFQCoDelBins, capBytes)
				} else {
					queues[i] = queue.NewDropTail(capBytes)
				}
			}
			flows := make([]FlowSpec, len(g.Routes))
			for f := range flows {
				var alg cc.Algorithm
				if f%2 == 0 {
					alg = cubic.New()
				} else {
					alg = &fixedCC{w: float64(4 + f)}
				}
				flows[f] = FlowSpec{
					Alg:      alg,
					Workload: &workload.OnOff{MeanOn: units.Second, MeanOff: units.Second / 2, Rng: rng.New(seed).SplitN("wl", f)},
				}
			}
			nw, err := build(g, queues, flows)
			if err != nil {
				t.Fatalf("trial %d: build: %v", trial, err)
			}
			nf := len(g.Routes)
			tin := make([][]int64, len(nw.Links))
			tout := make([][]int64, len(nw.Links))
			for li, l := range nw.Links {
				tin[li] = make([]int64, nf)
				tout[li] = make([]int64, nf)
				l.SetFlowTally(tin[li], tout[li])
			}
			// Conservation holds at any instant, not only when a run
			// ends: a link counts its own packets in propagation on
			// lanes it shares with the rest of the fabric.
			nw.Sample(97*units.Millisecond, func(now units.Time) {
				for li, l := range nw.Links {
					in, out := l.Counts()
					if drops := l.Queue().Stats().Drops(); in != out+drops+int64(l.InFlight()) {
						t.Fatalf("trial %d (%v) link %d at %v: in %d != out %d + drops %d + inflight %d",
							trial, policy, li, now, in, out, drops, l.InFlight())
					}
					busyLinks += min(l.InFlight(), 1)
				}
			})
			return nw, tin, tout
		}

		nw, tin, tout := mk()
		sts := nw.Run(5 * units.Second)
		replayNw, _, _ := mk()
		replay := replayNw.Run(5 * units.Second)

		var sent, arrived, dropped, inFlight int64
		for f, st := range sts {
			sent += st.SentPackets
			arrived += st.Arrivals
			if want := 2 * g.PathProp(f); st.MinRTT != want {
				t.Fatalf("trial %d flow %d: MinRTT %v, want 2x best path %v", trial, f, st.MinRTT, want)
			}
			if y := replay[f]; *y != *st {
				t.Fatalf("trial %d flow %d (%v): replay diverged:\n%+v\n%+v", trial, f, policy, *st, *y)
			}
			// Per-flow conservation: packets not yet delivered are
			// stranded inside links (queued, serializing, propagating,
			// or dropped there), and tallies locate them.
			var stranded int64
			for li := range nw.Links {
				stranded += tin[li][f] - tout[li][f]
			}
			if st.SentPackets != st.Arrivals+stranded {
				t.Fatalf("trial %d flow %d (%v): per-flow conservation violated: sent %d != arrived %d + stranded %d",
					trial, f, policy, st.SentPackets, st.Arrivals, stranded)
			}
		}
		for _, l := range nw.Links {
			in, out := l.Counts()
			drops := l.Queue().Stats().Drops()
			if in != out+drops+int64(l.InFlight()) {
				t.Fatalf("trial %d (%v): per-link conservation violated: in %d != out %d + drops %d + inflight %d",
					trial, policy, in, out, drops, l.InFlight())
			}
			dropped += drops
			inFlight += int64(l.InFlight())
		}
		for li, l := range nw.Links {
			q, ok := l.Queue().(*queue.SFQCoDel)
			if !ok {
				continue
			}
			// Len is a counter kept beside the bins; emptying them
			// counts what they hold (CoDel may drop some on the way).
			n, drops, handed := int64(q.Len()), q.Stats().Drops(), int64(0)
			for q.Dequeue(units.Time(0).Add(5*units.Second)) != nil {
				handed++
			}
			if handed+q.Stats().Drops()-drops != n || q.Len() != 0 || q.Bytes() != 0 {
				t.Fatalf("trial %d (%v) link %d: sfqCoDel reported %d packets, its bins held %d (now Len %d, Bytes %d)",
					trial, policy, li, n, handed+q.Stats().Drops()-drops, q.Len(), q.Bytes())
			}
			sfqDrops += drops
		}
		if sent != arrived+dropped+inFlight {
			t.Fatalf("trial %d (%v): global conservation violated: sent %d != arrived %d + dropped %d + in-flight %d",
				trial, policy, sent, arrived, dropped, inFlight)
		}
		if sent == 0 {
			t.Fatalf("trial %d: no traffic; property run is vacuous", trial)
		}
	}
	if sfqDrops == 0 {
		t.Fatal("no sfqCoDel gateway ever dropped; its eviction and AQM paths went unexercised")
	}
	if busyLinks == 0 {
		t.Fatal("no sampled instant found a packet inside a link; the mid-run conservation check is vacuous")
	}
}

// TestMultipathValidateRejects enumerates the malformed multipath
// descriptions Validate must catch, on top of the single-path cases.
func TestMultipathValidateRejects(t *testing.T) {
	edges := []Edge{
		{Rate: units.Mbps, Prop: units.Millisecond},
		{Rate: units.Mbps, Prop: units.Millisecond},
		{Rate: units.Mbps, Prop: units.Millisecond},
	}
	ok := &Graph{Edges: edges, Routes: []Route{{Links: []int{0, 1}, Alts: [][]int{{0, 2}}}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid multipath graph rejected: %v", err)
	}
	for name, g := range map[string]*Graph{
		"empty alt":         {Edges: edges, Routes: []Route{{Links: []int{0}, Alts: [][]int{{}}}}},
		"alt out of range":  {Edges: edges, Routes: []Route{{Links: []int{0}, Alts: [][]int{{3}}}}},
		"alt revisits edge": {Edges: edges, Routes: []Route{{Links: []int{0}, Alts: [][]int{{0, 1, 0}}}}},
		"alt first hop differs": {Edges: edges, Routes: []Route{
			{Links: []int{0, 1}, Alts: [][]int{{2, 1}}},
		}},
		"alt union cycles": {Edges: edges, Routes: []Route{
			// Primary 0->1->2, alt 0->2->1: at 1 a packet may go to 2,
			// at 2 back to 1 — the union relation loops.
			{Links: []int{0, 1, 2}, Alts: [][]int{{0, 2, 1}}},
		}},
		"unknown policy": {Edges: edges, Routes: []Route{{Links: []int{0}}}, Routing: RoutingPolicy(9)},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestFatTreeShape pins the fabric arithmetic: host count, edge count,
// and the path-diversity tiers (1, k/2, (k/2)² equal-cost paths, all
// validating as acyclic unions).
func TestFatTreeShape(t *testing.T) {
	ft := testFatTree(t, 4)
	if got := ft.Hosts(); got != 16 {
		t.Fatalf("k=4 hosts = %d, want 16", got)
	}
	// 2 per host (32) + per pod: edge->agg 4, agg->edge 4, agg->core 4
	// (48 over 4 pods) + core->pod 4*4 (16).
	if got := len(ft.G.Edges); got != 96 {
		t.Fatalf("k=4 edges = %d, want 96", got)
	}
	cases := []struct {
		src, dst, paths, hops int
	}{
		{0, 1, 1, 2},  // same edge switch
		{0, 2, 2, 4},  // same pod, different edge switch
		{0, 4, 4, 6},  // different pod
		{15, 0, 4, 6}, // different pod, reverse direction
		{5, 7, 2, 4},  // pod 1 intra-pod
	}
	for _, c := range cases {
		f, err := ft.AddFlow(c.src, c.dst)
		if err != nil {
			t.Fatalf("AddFlow(%d,%d): %v", c.src, c.dst, err)
		}
		rt := ft.G.Routes[f]
		if got := 1 + len(rt.Alts); got != c.paths {
			t.Fatalf("flow %d->%d: %d paths, want %d", c.src, c.dst, got, c.paths)
		}
		for pi := 0; pi < rt.numPaths(); pi++ {
			if p := rt.path(pi); len(p) != c.hops {
				t.Fatalf("flow %d->%d path %d: %d hops, want %d", c.src, c.dst, pi, len(p), c.hops)
			}
		}
	}
	if err := ft.G.Validate(); err != nil {
		t.Fatalf("fat-tree graph invalid: %v", err)
	}
	if _, err := ft.AddFlow(3, 3); err == nil {
		t.Fatal("self-flow accepted")
	}
	if _, err := FatTree(5, units.Mbps, FatTreeDelays{}); err == nil {
		t.Fatal("odd arity accepted")
	}
}
