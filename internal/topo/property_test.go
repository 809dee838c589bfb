package topo

// Property tests over randomly generated topology graphs: packet
// conservation (every sent packet is delivered, dropped, or still
// inside a link when the run ends — exactly once), per-flow minimum
// RTT equal to twice the path propagation sum, and seed-determinism
// of the whole simulation.

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

// randomGraph draws a connected-enough random topology: up to five
// edges with random rates and delays, and up to five flows whose paths
// are random walks over a random subset of the edges.
func randomGraph(r *rng.Stream) *Graph {
	g := &Graph{}
	nEdges := 1 + r.Intn(5)
	for i := 0; i < nEdges; i++ {
		g.Edges = append(g.Edges, Edge{
			Rate: units.Rate(1+r.Intn(30)) * units.Mbps,
			Prop: units.Duration(1+r.Intn(80)) * units.Millisecond,
		})
	}
	nFlows := 1 + r.Intn(5)
	for f := 0; f < nFlows; f++ {
		perm := r.Perm(nEdges)
		hops := 1 + r.Intn(nEdges)
		g.Routes = append(g.Routes, Route{Links: perm[:hops]})
	}
	return g
}

// buildRandom assembles the graph with fresh queues, controllers, and
// workloads (all derived from seed, so two calls build identical
// networks).
func buildRandom(t *testing.T, g *Graph, r *rng.Stream, seed uint64) *netsim.Network {
	t.Helper()
	queues := make([]queue.Discipline, len(g.Edges))
	for i := range queues {
		queues[i] = queue.NewDropTail((2 + r.Intn(60)) * 1500)
	}
	flows := make([]FlowSpec, len(g.Routes))
	for f := range flows {
		var alg cc.Algorithm
		if r.Intn(2) == 0 {
			alg = cubic.New()
		} else {
			alg = &fixedCC{w: float64(1 + r.Intn(40))}
		}
		flows[f] = FlowSpec{
			Alg:      alg,
			Workload: &workload.OnOff{MeanOn: units.Second, MeanOff: units.Second / 2, Rng: rng.New(seed).SplitN("wl", f)},
		}
	}
	nw, err := build(g, queues, flows)
	if err != nil {
		t.Fatalf("build random graph: %v", err)
	}
	return nw
}

func TestRandomGraphProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("property test with many simulations")
	}
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial) + 0x6e
		r := rng.New(seed)
		g := randomGraph(r)

		// Two identical builds: run one, replay the other. The second
		// stream must replay the same queue/controller draws, so clone
		// the generator state by re-deriving it.
		mk := func() *netsim.Network {
			return buildRandom(t, g, rng.New(seed).Split("build"), seed)
		}
		nw := mk()
		sts := nw.Run(10 * units.Second)
		replay := mk().Run(10 * units.Second)

		var sent, arrived, dropped, inFlight int64
		for f, st := range sts {
			sent += st.SentPackets
			arrived += st.Arrivals

			// Per-flow propagation facts derive from path membership.
			if want := g.PathProp(f); st.PropDelay != want {
				t.Fatalf("trial %d flow %d: PropDelay %v, want path sum %v", trial, f, st.PropDelay, want)
			}
			if want := 2 * g.PathProp(f); st.MinRTT != want {
				t.Fatalf("trial %d flow %d: MinRTT %v, want 2x path sum %v", trial, f, st.MinRTT, want)
			}

			// Determinism: the replay must agree field for field.
			y := replay[f]
			if *y != *st {
				t.Fatalf("trial %d flow %d: replay diverged:\n%+v\n%+v", trial, f, *st, *y)
			}
		}
		for _, l := range nw.Links {
			dropped += l.Queue().Stats().Drops()
			inFlight += int64(l.InFlight())
		}
		// Conservation: every transmission is accounted for exactly
		// once — delivered to its receiver, dropped at a gateway, or
		// still inside a link when the clock stopped.
		if sent != arrived+dropped+inFlight {
			t.Fatalf("trial %d: conservation violated: sent %d != arrived %d + dropped %d + in-flight %d",
				trial, sent, arrived, dropped, inFlight)
		}
		if sent == 0 {
			t.Fatalf("trial %d: no traffic; property run is vacuous", trial)
		}
	}
}

// TestGraphValidateRejects enumerates the malformed descriptions
// Validate must catch.
func TestGraphValidateRejects(t *testing.T) {
	ok := &Graph{
		Edges:  []Edge{{Rate: units.Mbps, Prop: units.Millisecond}, {Rate: units.Mbps, Prop: units.Millisecond}},
		Routes: []Route{{Links: []int{0, 1}}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	for name, g := range map[string]*Graph{
		"no edges":      {Routes: []Route{{Links: []int{0}}}},
		"no routes":     {Edges: ok.Edges},
		"zero rate":     {Edges: []Edge{{Rate: 0, Prop: 0}}, Routes: []Route{{Links: []int{0}}}},
		"negative prop": {Edges: []Edge{{Rate: units.Mbps, Prop: -1}}, Routes: []Route{{Links: []int{0}}}},
		"empty route":   {Edges: ok.Edges, Routes: []Route{{}}},
		"out of range":  {Edges: ok.Edges, Routes: []Route{{Links: []int{2}}}},
		"revisit":       {Edges: ok.Edges, Routes: []Route{{Links: []int{0, 1, 0}}}},
		"neg reverse":   {Edges: ok.Edges, Routes: []Route{{Links: []int{0}, Reverse: -1}}},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestGraphFairShare pins the path-membership fair-share derivation,
// including a parking lot with three flows on one link — the case the
// old per-topology switch silently got wrong.
func TestGraphFairShare(t *testing.T) {
	// Figure 5 parking lot: each link carries two flows.
	pl := parkingLotGraph([]units.Rate{10 * units.Mbps, 20 * units.Mbps}, 75*units.Millisecond, 1, true)
	if got := pl.FairShares()[0]; got != 5*units.Mbps {
		t.Fatalf("long flow share = %v, want 5Mbps", got)
	}
	if got := pl.FairShares()[1]; got != 5*units.Mbps {
		t.Fatalf("cross flow 1 share = %v, want 5Mbps", got)
	}
	if got := pl.FairShares()[2]; got != 10*units.Mbps {
		t.Fatalf("cross flow 2 share = %v, want 10Mbps", got)
	}
	// Two long flows + cross traffic: link 0 carries three flows, so
	// shares follow membership, not a hardcoded two-per-link rule.
	pl3 := parkingLotGraph([]units.Rate{30 * units.Mbps, 30 * units.Mbps}, 75*units.Millisecond, 2, true)
	if got := pl3.FairShares()[0]; got != 10*units.Mbps {
		t.Fatalf("long flow share with 3 flows/link = %v, want 10Mbps", got)
	}
	if got := pl3.FairShares()[2]; got != 10*units.Mbps {
		t.Fatalf("cross flow share with 3 flows/link = %v, want 10Mbps", got)
	}
}
