package scenario

// Per-link buffering overrides: a spec-wide BufferBDP sizes every
// gateway queue from the spec-wide MinRTT; these tests pin the per-link
// resolution order — explicit topo.Edge.Buffer bytes, then
// Spec.BufferBDP — and that the overrides are plain data (JSON
// round-trip, so they ship to shard workers).

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// dropTailCaps builds the spec and returns each link's drop-tail
// capacity in bytes.
func dropTailCaps(t *testing.T, spec Spec) []int {
	t.Helper()
	_, queues, err := Build(spec)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	caps := make([]int, len(queues))
	for i, q := range queues {
		dt, ok := q.(*queue.DropTail)
		if !ok {
			t.Fatalf("link %d queue is %T, want *queue.DropTail", i, q)
		}
		caps[i] = dt.Capacity()
	}
	return caps
}

func TestEdgeBufferOverridesBytes(t *testing.T) {
	g := &topo.Graph{
		Edges: []topo.Edge{
			{Rate: 10 * units.Mbps, Prop: 20 * units.Millisecond, Buffer: 9000},
			{Rate: 10 * units.Mbps, Prop: 20 * units.Millisecond},
		},
		Routes: []topo.Route{{Links: []int{0, 1}}, {Links: []int{1}}},
	}
	spec := Spec{
		Topology:  GraphTopology(g),
		MinRTT:    100 * units.Millisecond, // sizes the non-overridden edge
		Buffering: FiniteDropTail,
		BufferBDP: 2,
		MeanOn:    units.Second,
		MeanOff:   units.Second,
		Duration:  units.Second,
		Seed:      rng.New(1),
		Senders: []Sender{
			{Alg: cubic.New(), Delta: 1},
			{Alg: cubic.New(), Delta: 1},
		},
	}
	caps := dropTailCaps(t, spec)
	if caps[0] != 9000 {
		t.Fatalf("edge 0 capacity %d, want the explicit 9000-byte override", caps[0])
	}
	if want := 2 * units.BDPBytes(10*units.Mbps, 100*units.Millisecond); caps[1] != want {
		t.Fatalf("edge 1 capacity %d, want BDP-sized %d", caps[1], want)
	}
	// The edge override frees an explicit graph from MinRTT entirely
	// when every edge carries one.
	g2 := &topo.Graph{
		Edges:  []topo.Edge{{Rate: 10 * units.Mbps, Prop: 20 * units.Millisecond, Buffer: 30000}},
		Routes: []topo.Route{{Links: []int{0}}},
	}
	spec2 := spec
	spec2.Topology = GraphTopology(g2)
	spec2.MinRTT = 0
	spec2.Senders = spec.Senders[:1]
	if caps := dropTailCaps(t, spec2); caps[0] != 30000 {
		t.Fatalf("MinRTT-free graph capacity %d, want 30000", caps[0])
	}
}

func TestEdgeBufferUsedVerbatimBelowFloor(t *testing.T) {
	// A tiny-buffer study may want a single-packet queue: explicit
	// byte overrides bypass the two-packet floor that guards computed
	// BDP sizes.
	g := &topo.Graph{
		Edges:  []topo.Edge{{Rate: 10 * units.Mbps, Prop: units.Millisecond, Buffer: 1500}},
		Routes: []topo.Route{{Links: []int{0}}},
	}
	spec := Spec{
		Topology:  GraphTopology(g),
		Buffering: FiniteDropTail,
		MeanOn:    units.Second,
		MeanOff:   units.Second,
		Duration:  units.Second,
		Seed:      rng.New(1),
		Senders:   []Sender{{Alg: cubic.New(), Delta: 1}},
	}
	if caps := dropTailCaps(t, spec); caps[0] != 1500 {
		t.Fatalf("explicit 1500-byte buffer became %d (floor applied to an override)", caps[0])
	}
}

func TestNegativeEdgeBufferRejected(t *testing.T) {
	g := &topo.Graph{
		Edges:  []topo.Edge{{Rate: 10 * units.Mbps, Prop: units.Millisecond, Buffer: -1}},
		Routes: []topo.Route{{Links: []int{0}}},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("negative buffer override accepted")
	}
}

func TestEdgeBufferRoundTripsJSON(t *testing.T) {
	// Per-link buffers are part of the declarative description, so
	// they must survive the trip through the shard wire protocol's
	// JSON config.
	in := Topology{Kind: KindGraph, Graph: &topo.Graph{
		Edges:  []topo.Edge{{Rate: 8 * units.Mbps, Prop: units.Millisecond, Buffer: 4500}},
		Routes: []topo.Route{{Links: []int{0}}},
	}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Topology
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("topology changed across JSON: %+v vs %+v", in, out)
	}
}

// TestLinkBufferOverrideChangesBehavior guards against an override
// that parses but never reaches the simulation: squeezing one link's
// buffer, by an edge Buffer on the parking lot's graph, must change that
// scenario's results.
func TestLinkBufferOverrideChangesBehavior(t *testing.T) {
	// The two-hop parking lot ParkingLotN(2, true) lays out at this
	// MinRTT: 25 ms a hop.
	lot := func() *topo.Graph {
		return parkingLotGraph([]units.Rate{4 * units.Mbps, 4 * units.Mbps}, 25*units.Millisecond, 1, true)
	}
	base := Spec{
		Topology:  GraphTopology(lot()),
		LinkSpeed: 4 * units.Mbps,
		MinRTT:    100 * units.Millisecond,
		Buffering: FiniteDropTail,
		BufferBDP: 5,
		MeanOn:    units.Second,
		MeanOff:   100 * units.Millisecond,
		Duration:  8 * units.Second,
		Senders: []Sender{
			{Alg: cubic.New(), Delta: 1},
			{Alg: cubic.New(), Delta: 1},
			{Alg: cubic.New(), Delta: 1},
		},
	}
	wide := base
	wide.Seed = rng.New(3)
	wideRes := MustRun(wide)

	tight := base
	tight.Senders = []Sender{
		{Alg: cubic.New(), Delta: 1},
		{Alg: cubic.New(), Delta: 1},
		{Alg: cubic.New(), Delta: 1},
	}
	squeezed := lot()
	squeezed.Edges[1].Buffer = units.BDPBytes(4*units.Mbps, 100*units.Millisecond) / 4 // 0.25 BDP; link 0 keeps 5
	tight.Topology = GraphTopology(squeezed)
	tight.Seed = rng.New(3)
	tightRes := MustRun(tight)

	if reflect.DeepEqual(wideRes, tightRes) {
		t.Fatal("per-link buffer override did not change the simulation")
	}
}

// TestBufferBDPSaturates pins BDP sizing at both ends of the float
// range. A product past what an int holds is an unbounded buffer under
// every queue: converting it with int() is implementation-defined in
// Go, and on amd64 gave math.MinInt64, floored to two packets, where
// arm64 saturated. Below that, sizing is the product itself.
func TestBufferBDPSaturates(t *testing.T) {
	for _, buf := range []Buffering{FiniteDropTail, CoDelAQM, SfqCoDel} {
		for _, tc := range []struct {
			bdps float64
			want int
		}{
			{1e300, queue.Unbounded},
			{float64(math.MaxInt64) / 62500, queue.Unbounded}, // 62 500 B is 5 Mbps × 100 ms
			{5, 5 * 62500},
		} {
			spec := Spec{
				Topology: Dumbbell, LinkSpeed: 5 * units.Mbps, MinRTT: 100 * units.Millisecond,
				Buffering: buf, BufferBDP: tc.bdps, MeanOn: units.Second, MeanOff: units.Second,
				Duration: units.Second, Seed: rng.New(1), Senders: []Sender{{Alg: cubic.New(), Delta: 1}},
			}
			_, queues, err := Build(spec)
			if err != nil {
				t.Fatalf("%v at %v BDP: %v", buf, tc.bdps, err)
			}
			if got := queues[0].(interface{ Capacity() int }).Capacity(); got != tc.want {
				t.Errorf("%v at %v BDP: capacity %d bytes, want %d", buf, tc.bdps, got, tc.want)
			}
		}
	}
}
