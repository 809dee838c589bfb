package scenario

// Fat-tree scenario tests: the KindFatTree Spec family end to end under
// all three routing policies, the reordering stress test (spraying over
// asymmetric-delay paths must reorder packets, and both SACK scoreboard
// implementations must absorb it identically), and the topology JSON
// codec including unknown-routing-policy rejection.

import (
	"encoding/json"
	"strings"
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/rng"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// fatTreeSpec is a small k=4 incast scenario under the given routing
// policy, with Cubic senders and seeded workloads.
func fatTreeSpec(routing topo.RoutingPolicy, seed uint64) Spec {
	t := FatTreeIncast(4, 4, routing)
	spec := Spec{
		Topology:  t,
		LinkSpeed: 20 * units.Mbps,
		MinRTT:    60 * units.Millisecond,
		Buffering: FiniteDropTail,
		BufferBDP: 1,
		MeanOn:    units.Second,
		MeanOff:   units.Second / 2,
		Duration:  5 * units.Second,
		Seed:      rng.New(seed),
	}
	for i := 0; i < t.FlowCount(0); i++ {
		spec.Senders = append(spec.Senders, Sender{Alg: cubic.New(), Delta: 1})
	}
	return spec
}

// TestFatTreeSpecFamily runs the KindFatTree family end to end under
// every routing policy and checks determinism across reruns (including
// across the world pool: the rerun recycles the first run's network).
func TestFatTreeSpecFamily(t *testing.T) {
	for _, pol := range []topo.RoutingPolicy{topo.ECMP, topo.Spray, topo.Adaptive} {
		res, err := Run(fatTreeSpec(pol, 3))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if len(res) != 4 {
			t.Fatalf("%v: %d results, want 4", pol, len(res))
		}
		var tput units.Rate
		for _, r := range res {
			tput += r.Throughput
		}
		if tput == 0 {
			t.Fatalf("%v: no throughput; fat-tree run is vacuous", pol)
		}
		rerun, err := Run(fatTreeSpec(pol, 3))
		if err != nil {
			t.Fatalf("%v rerun: %v", pol, err)
		}
		for i := range res {
			if res[i] != rerun[i] {
				t.Fatalf("%v: rerun diverged at flow %d:\n%+v\n%+v", pol, i, res[i], rerun[i])
			}
		}
	}
}

// asymmetricSprayGraph builds a k=4 fat-tree whose equal-cost paths
// have deliberately unequal delays (each edge's propagation is skewed
// by its index), so per-packet spraying interleaves paths of different
// latency and the receiver sees genuinely reordered arrivals.
func asymmetricSprayGraph(t *testing.T) *topo.Graph {
	t.Helper()
	ft, err := topo.FatTree(4, 20*units.Mbps, topo.FatTreeDelays{
		Host: 2 * units.Millisecond, Pod: 2 * units.Millisecond, Core: 2 * units.Millisecond,
	})
	if err != nil {
		t.Fatalf("FatTree: %v", err)
	}
	for i := range ft.G.Edges {
		ft.G.Edges[i].Prop += units.Duration(i%7) * units.Millisecond
	}
	if err := ft.AddPermutation(); err != nil {
		t.Fatalf("permutation: %v", err)
	}
	ft.G.Routing = topo.Spray
	return &ft.G
}

// TestSprayReorderingScoreboards is the reordering stress test: under
// SPRAY on a fat-tree with asymmetric path delays the run must be
// deterministic across reruns — the sender's SACK scoreboard and the
// receiver's ooo ring absorb the out-of-order arrivals identically
// every time — and, so the comparison is known to be non-vacuous, the
// receivers must actually have seen out-of-order arrivals. (The
// ring-vs-map scoreboard cross-check under reordering lives in package
// netsim, TestRingScoreboardMatchesMap.)
func TestSprayReorderingScoreboards(t *testing.T) {
	g := asymmetricSprayGraph(t)
	mkSpec := func() Spec {
		spec := Spec{
			Topology:  GraphTopology(g),
			MinRTT:    60 * units.Millisecond, // buffer sizing only
			Buffering: FiniteDropTail,
			BufferBDP: 1,
			MeanOn:    units.Second,
			MeanOff:   units.Second / 2,
			Duration:  8 * units.Second,
			Seed:      rng.New(17),
		}
		for i := 0; i < g.NumFlows(); i++ {
			spec.Senders = append(spec.Senders, Sender{Alg: cubic.New(), Delta: 1})
		}
		return spec
	}

	// Via Build so the network stays inspectable.
	spec := mkSpec()
	nw, _, err := Build(spec)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	first := Finish(spec, nw)

	var reordered, retransmits int64
	for _, fl := range nw.Flows {
		reordered += fl.Stats.Reordered
		retransmits += fl.Stats.Retransmits
	}
	if reordered == 0 {
		t.Fatal("spraying over asymmetric paths produced zero out-of-order arrivals; stress test is vacuous")
	}
	t.Logf("reordered arrivals: %d, retransmits: %d", reordered, retransmits)

	// Determinism across reruns (same seed, through Run's world pool).
	rerun, err := Run(mkSpec())
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	for i := range first {
		if first[i] != rerun[i] {
			t.Fatalf("rerun diverged at flow %d:\n%+v\n%+v", i, first[i], rerun[i])
		}
	}
}

// TestFatTreeTopologyJSON round-trips the fat-tree topology description
// (routing policy serialized by name) and rejects unknown policies and
// non-string encodings at decode time.
func TestFatTreeTopologyJSON(t *testing.T) {
	orig := FatTreeIncast(4, 3, topo.Spray)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(data), `"routing":"spray"`) {
		t.Fatalf("routing policy not serialized by name: %s", data)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Kind != orig.Kind || back.FatTreeK != orig.FatTreeK ||
		back.Routing != orig.Routing || back.Placement != orig.Placement || back.IncastN != orig.IncastN {
		t.Fatalf("round trip changed the topology: %+v vs %+v", back, orig)
	}
	// ECMP is the zero policy and must be omitted (and so decode back).
	ecmpData, err := json.Marshal(FatTreeTopology(4, topo.ECMP))
	if err != nil {
		t.Fatalf("marshal ecmp: %v", err)
	}
	if strings.Contains(string(ecmpData), "routing") {
		t.Fatalf("zero routing policy should be omitted: %s", ecmpData)
	}

	for name, blob := range map[string]string{
		"unknown policy": `{"kind":3,"k":4,"routing":"wormhole"}`,
		"numeric policy": `{"kind":3,"k":4,"routing":1}`,
	} {
		var tp Topology
		if err := json.Unmarshal([]byte(blob), &tp); err == nil {
			t.Errorf("%s: decode accepted %s", name, blob)
		}
	}
}
