package scenario

// Reverse-path scenarios: the graph engine has always supported
// asymmetric reverse (ACK) delays via topo.Route.Reverse, but no
// scenario family exercised them. These tests run a two-direction
// dumbbell (duplexDumbbellGraph) with the reverse direction
// loaded by real data traffic, pinning the engine's reverse-path
// semantics: Reverse sets each flow's ACK delay and minimum RTT
// exactly, ACKs themselves never queue (the paper's uncongested-ACK
// assumption), and a congested reverse *data* direction squeezes the
// flows routed over it without perturbing the forward flows' ACK
// clocking.

import (
	"reflect"
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/rng"
	"learnability/internal/topo"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// duplexSpec is a forward flow sharing the fabric with nRev
// always-on reverse-direction flows loading the reverse link.
func duplexSpec(seed uint64, revRate units.Rate, nRev int) Spec {
	g := duplexDumbbellGraph(16*units.Mbps, revRate, 100*units.Millisecond, 1, nRev)
	senders := []Sender{{Alg: cubic.New(), Delta: 1, Workload: workload.AlwaysOn{}}}
	for i := 0; i < nRev; i++ {
		senders = append(senders, Sender{Alg: cubic.New(), Delta: 1, Workload: workload.AlwaysOn{}})
	}
	return Spec{
		Topology:  GraphTopology(g),
		MinRTT:    100 * units.Millisecond, // sizes the finite buffers
		Buffering: FiniteDropTail,
		BufferBDP: 1,
		Senders:   senders,
		Duration:  10 * units.Second,
		Seed:      rng.New(seed),
	}
}

func TestReversePathCongestion(t *testing.T) {
	// Three reverse flows fight over a reverse link narrower than the
	// forward one.
	res := MustRun(duplexSpec(11, 8*units.Mbps, 3))

	// Route.Reverse is honored: every flow's minimum RTT is exactly
	// the symmetric 100 ms, forward and reverse flows alike.
	for i, r := range res {
		if r.MinRTT != 100*units.Millisecond {
			t.Fatalf("flow %d MinRTT = %v, want exactly 100ms (Route.Reverse not applied)", i, r.MinRTT)
		}
	}

	// The forward flow owns its direction: ~16 Mbps despite the loaded
	// reverse link, because ACKs ride a delay-only reverse path and
	// never queue behind the reverse flows' data.
	fwd := res[0]
	if fwd.FairShare != 16*units.Mbps {
		t.Fatalf("forward fair share = %v, want the full 16 Mbps", fwd.FairShare)
	}
	if fwd.Throughput < 12*units.Mbps {
		t.Fatalf("forward throughput %v collapsed under reverse-direction load", fwd.Throughput)
	}

	// The reverse flows congest each other: each is held near its
	// 8/3 Mbps share of the reverse link, far below the forward flow.
	var revSum units.Rate
	for _, r := range res[1:] {
		revSum += r.Throughput
		if r.Throughput > 2*fwd.Throughput/3 {
			t.Fatalf("reverse flow got %v, not squeezed by the shared reverse link (forward: %v)",
				r.Throughput, fwd.Throughput)
		}
		if r.FairShare != 8*units.Mbps/3 {
			t.Fatalf("reverse fair share = %v, want 8/3 Mbps", r.FairShare)
		}
	}
	if revSum > 8*units.Mbps {
		t.Fatalf("reverse flows carried %v over an 8 Mbps link", revSum)
	}

	// And the load is real: the reverse flows queue behind each other.
	maxQueue := units.Duration(0)
	for _, r := range res[1:] {
		if r.QueueDelay > maxQueue {
			maxQueue = r.QueueDelay
		}
	}
	if maxQueue == 0 {
		t.Fatal("no queueing delay on the loaded reverse link; the scenario exercises nothing")
	}
}

func TestReversePathAsymmetricDelay(t *testing.T) {
	// An explicitly asymmetric route: 30 ms forward propagation,
	// 70 ms back. MinRTT must come out at exactly 100 ms and the
	// one-way delay statistics must reflect only the forward leg.
	g := &topo.Graph{
		Edges: []topo.Edge{{Rate: 10 * units.Mbps, Prop: 30 * units.Millisecond}},
		Routes: []topo.Route{
			{Links: []int{0}, Reverse: 70 * units.Millisecond},
		},
	}
	spec := Spec{
		Topology:  GraphTopology(g),
		Buffering: NoDrop,
		Senders:   []Sender{{Alg: cubic.New(), Delta: 1, Workload: workload.AlwaysOn{}}},
		Duration:  4 * units.Second,
		Seed:      rng.New(5),
	}
	res := MustRun(spec)
	if res[0].MinRTT != 100*units.Millisecond {
		t.Fatalf("MinRTT = %v, want 30+70 = 100ms", res[0].MinRTT)
	}
	if res[0].Delay < 30*units.Millisecond {
		t.Fatalf("one-way delay %v below forward propagation", res[0].Delay)
	}
}

func TestReversePathDeterminism(t *testing.T) {
	// The duplex shape replays bit-identically, like every other
	// scenario family.
	a := MustRun(duplexSpec(21, 6*units.Mbps, 2))
	b := MustRun(duplexSpec(21, 6*units.Mbps, 2))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("duplex dumbbell replay diverged")
	}
}

// duplexDumbbellGraph describes a two-direction dumbbell: edge 0
// carries nFwd "forward" flows at fwdRate, edge 1 carries nRev
// "reverse" flows at revRate, each edge with one-way propagation
// minRTT/2. Every flow's ACKs nominally ride the opposite direction,
// expressed through Route.Reverse (= minRTT minus the flow's forward
// propagation, so minimum RTTs are exactly minRTT even for odd
// nanosecond values). The engine's reverse paths are delay-only —
// ACKs never queue (the paper's assumption) — so this is the shape
// for studying a *data-loaded* reverse direction: reverse-flow data
// congests edge 1 while forward-flow ACK clocking stays clean.
func duplexDumbbellGraph(fwdRate, revRate units.Rate, minRTT units.Duration, nFwd, nRev int) *topo.Graph {
	prop := minRTT / 2
	g := &topo.Graph{Edges: []topo.Edge{
		{Rate: fwdRate, Prop: prop},
		{Rate: revRate, Prop: prop},
	}}
	for i := 0; i < nFwd; i++ {
		g.Routes = append(g.Routes, topo.Route{Links: []int{0}, Reverse: minRTT - prop})
	}
	for i := 0; i < nRev; i++ {
		g.Routes = append(g.Routes, topo.Route{Links: []int{1}, Reverse: minRTT - prop})
	}
	return g
}
