package scenario

// Tests for the declarative topology layer: the built-in families must
// be indistinguishable from the explicit graphs they compile to, and
// the N-hop parking-lot family must run end to end.

import (
	"encoding/json"
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/rng"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// dumbbellGraph is a new graph made a dumbbell by topo's SetDumbbell.
func dumbbellGraph(rate units.Rate, minRTT units.Duration, nflows int) *topo.Graph {
	g := new(topo.Graph)
	g.SetDumbbell(rate, minRTT, nflows)
	return g
}

// parkingLotGraph is a new graph made a parking lot by topo's
// SetParkingLot.
func parkingLotGraph(rates []units.Rate, hopProp units.Duration, nLong int, cross bool) *topo.Graph {
	g := new(topo.Graph)
	g.SetParkingLot(rates, hopProp, nLong, cross)
	return g
}

func nCubic(n int) []Sender {
	out := make([]Sender, n)
	for i := range out {
		out[i] = Sender{Alg: cubic.New(), Delta: 1}
	}
	return out
}

// TestFamilyMatchesExplicitGraph runs the same scenario once through a
// built-in family and once through the explicit graph that family
// compiles to; results must be bit-identical.
func TestFamilyMatchesExplicitGraph(t *testing.T) {
	base := Spec{
		LinkSpeed:  10 * units.Mbps,
		LinkSpeeds: []units.Rate{0, 20 * units.Mbps},
		MinRTT:     300 * units.Millisecond,
		Buffering:  FiniteDropTail,
		BufferBDP:  1,
		MeanOn:     units.Second,
		MeanOff:    units.Second,
		Duration:   10 * units.Second,
	}
	for name, tc := range map[string]struct {
		family  Topology
		graph   *topo.Graph
		senders int
	}{
		"dumbbell": {
			family:  Dumbbell,
			graph:   dumbbellGraph(10*units.Mbps, 300*units.Millisecond, 2),
			senders: 2,
		},
		"parking-lot": {
			family:  ParkingLot,
			graph:   parkingLotGraph([]units.Rate{10 * units.Mbps, 20 * units.Mbps}, 75*units.Millisecond, 1, true),
			senders: 3,
		},
	} {
		t.Run(name, func(t *testing.T) {
			fam := base
			fam.Topology = tc.family
			fam.Seed = rng.New(9)
			fam.Senders = nCubic(tc.senders)

			exp := base
			exp.Topology = GraphTopology(tc.graph)
			exp.Seed = rng.New(9)
			exp.Senders = nCubic(tc.senders)

			a, b := MustRun(fam), MustRun(exp)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("flow %d: family %+v != explicit graph %+v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestParkingLotNEndToEnd runs a 3-hop parking lot with cross traffic
// through the Spec path and checks the derived per-flow facts.
func TestParkingLotNEndToEnd(t *testing.T) {
	const hops = 3
	s := Spec{
		Topology:   ParkingLotN(hops, true),
		LinkSpeed:  12 * units.Mbps,
		LinkSpeeds: []units.Rate{12 * units.Mbps, 6 * units.Mbps, 24 * units.Mbps},
		MinRTT:     300 * units.Millisecond,
		Buffering:  FiniteDropTail,
		BufferBDP:  2,
		MeanOn:     units.Second,
		MeanOff:    units.Second,
		Duration:   20 * units.Second,
		Seed:       rng.New(5),
		Senders:    nCubic(1 + hops),
	}
	results := MustRun(s)
	if len(results) != 1+hops {
		t.Fatalf("got %d results", len(results))
	}
	// Long flow: full 300 ms RTT; cross flows: one 50 ms hop each way.
	if results[0].MinRTT != 300*units.Millisecond {
		t.Fatalf("long flow MinRTT = %v", results[0].MinRTT)
	}
	for i := 1; i <= hops; i++ {
		if results[i].MinRTT != 100*units.Millisecond {
			t.Fatalf("cross flow %d MinRTT = %v, want 100ms", i, results[i].MinRTT)
		}
	}
	// Fair shares derive from per-link membership: every link carries
	// the long flow plus one cross flow.
	if results[0].FairShare != 3*units.Mbps {
		t.Fatalf("long flow share = %v, want 3Mbps (slowest link / 2)", results[0].FairShare)
	}
	if results[2].FairShare != 3*units.Mbps {
		t.Fatalf("cross flow on slow link share = %v, want 3Mbps", results[2].FairShare)
	}
	if results[3].FairShare != 12*units.Mbps {
		t.Fatalf("cross flow on fast link share = %v, want 12Mbps", results[3].FairShare)
	}
	for i, r := range results {
		if r.OnTime > 0 && r.Throughput <= 0 {
			t.Fatalf("flow %d was on but moved no traffic", i)
		}
	}
	// Seed-determinism through the whole Spec path.
	s2 := s
	s2.Seed = rng.New(5)
	s2.Senders = nCubic(1 + hops)
	replay := MustRun(s2)
	for i := range results {
		if results[i] != replay[i] {
			t.Fatalf("flow %d: replay diverged", i)
		}
	}
}

// TestTopologyJSONRoundTrip guards the wire format: topology
// descriptions ride inside the sharded trainer's job config, so they
// must survive JSON bit-exactly.
func TestTopologyJSONRoundTrip(t *testing.T) {
	for name, top := range map[string]Topology{
		"dumbbell":    Dumbbell,
		"parking-lot": ParkingLot,
		"parking-5":   ParkingLotN(5, false),
		"graph": GraphTopology(&topo.Graph{
			Edges:  []topo.Edge{{Rate: 10 * units.Mbps, Prop: 20 * units.Millisecond}},
			Routes: []topo.Route{{Links: []int{0}, Reverse: 30 * units.Millisecond}},
		}),
	} {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(top)
			if err != nil {
				t.Fatal(err)
			}
			var back Topology
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back.Kind != top.Kind || back.Hops != top.Hops ||
				back.LongFlows != top.LongFlows || back.CrossTraffic != top.CrossTraffic {
				t.Fatalf("round trip changed the family: %+v -> %+v", top, back)
			}
			if (top.Graph == nil) != (back.Graph == nil) {
				t.Fatalf("round trip changed graph presence")
			}
			if top.Graph != nil {
				if len(back.Graph.Edges) != len(top.Graph.Edges) ||
					len(back.Graph.Routes) != len(top.Graph.Routes) ||
					back.Graph.Edges[0] != top.Graph.Edges[0] ||
					back.Graph.Routes[0].Reverse != top.Graph.Routes[0].Reverse {
					t.Fatalf("round trip changed the graph: %+v -> %+v", top.Graph, back.Graph)
				}
			}
		})
	}
}
