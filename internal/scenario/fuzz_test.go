package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"learnability/internal/cc/newreno"
	"learnability/internal/rng"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// fuzzMaxSize, fuzzMaxRate and fuzzMaxBuffer cap the topologies
// FuzzTopologyJSON lays out and runs: flows, hops and edges beyond the
// first, and faster links or deeper buffers than the others allow (a
// 24 ms round trip at 8 Tbps buffers gigabytes), are a cost question,
// not a crash.
const (
	fuzzMaxSize   = 64
	fuzzMaxRate   = units.Gbps
	fuzzMaxBuffer = 1 << 20
)

// fuzzTooBig reports whether a valid topology is beyond the caps.
func fuzzTooBig(t Topology) bool {
	if t.Hops > fuzzMaxSize || t.LongFlows > fuzzMaxSize || t.FatTreeK > 4 {
		return true
	}
	if g := t.Graph; g != nil {
		if len(g.Edges) > fuzzMaxSize || len(g.Routes) > fuzzMaxSize {
			return true
		}
		for _, e := range g.Edges {
			if e.Rate > fuzzMaxRate || e.Buffer > fuzzMaxBuffer {
				return true
			}
		}
	}
	return t.FlowCount(2) > fuzzMaxSize
}

// FuzzTopologyJSON decodes topology descriptions the way training
// configs carry them and validates them. Whatever is accepted must
// encode and decode back to itself and, under a size cap, run a 50 ms
// scenario without panicking — on a pooled world, which lays out
// built-in families in storage it keeps — exactly when Spec.Validate
// accepts that scenario.
func FuzzTopologyJSON(f *testing.F) {
	ft, err := topo.FatTree(4, 10*units.Mbps, topo.FatTreeDelays{Host: units.Millisecond, Pod: units.Millisecond, Core: units.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	if err := ft.AddIncast(0, 3); err != nil {
		f.Fatal(err)
	}
	ft.G.Routing = topo.Spray
	for _, top := range []Topology{
		Dumbbell,
		ParkingLot,
		ParkingLotN(3, false),
		{Kind: KindParkingLot, Hops: 2, LongFlows: 2, CrossTraffic: true},
		GraphTopology(dumbbellGraph(8*units.Mbps, 40*units.Millisecond, 2)),
		GraphTopology(duplexDumbbellGraph(8*units.Mbps, 4*units.Mbps, 40*units.Millisecond, 1, 1)),
		GraphTopology(&ft.G),
		FatTreeTopology(4, topo.Adaptive),
		FatTreeIncast(4, 5, topo.ECMP),
		{Kind: KindFatTree, FatTreeK: 2, Placement: PlacementAllToAll},
	} {
		b, err := json.Marshal(top)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Extremes the graph check must bound; the inputs that crashed a
	// run before it did are in testdata/fuzz.
	for _, b := range []string{
		`{"kind":2,"graph":{"edges":[{"rate":1e6,"prop":1000,"buffer":1048576}],"routes":[{"links":[0]}]}}`,
		`{"kind":2,"graph":{"edges":[{"rate":1e6,"prop":1000}],"routes":[{"links":[0],"alts":[]}]}}`,
		`{"kind":1,"hops":64,"long_flows":64}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var top Topology
		if json.Unmarshal(b, &top) != nil || top.Validate() != nil {
			return
		}
		enc, err := json.Marshal(top)
		if err != nil {
			t.Fatalf("accepted topology does not encode: %v\n%s", err, b)
		}
		var back Topology
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("encoded topology does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(canonical(back), canonical(top)) {
			t.Fatalf("decode∘encode changed the topology:\n%+v\n%+v\n%s", top, back, enc)
		}

		if fuzzTooBig(top) {
			return
		}
		n := top.FlowCount(2)
		spec := Spec{
			Topology:  top,
			LinkSpeed: 10 * units.Mbps,
			MinRTT:    24 * units.Millisecond,
			Buffering: FiniteDropTail,
			BufferBDP: 1,
			MeanOn:    10 * units.Millisecond,
			MeanOff:   10 * units.Millisecond,
			Duration:  50 * units.Millisecond,
			Seed:      rng.New(1),
		}
		for i := 0; i < n; i++ {
			spec.Senders = append(spec.Senders, Sender{Alg: newreno.New(), Delta: 1})
		}
		verr := spec.Validate()
		if _, err := Run(spec); (err == nil) != (verr == nil) {
			t.Fatalf("Validate says %v, Run %v\n%s", verr, err, b)
		}
	})
}

// canonical is t with the encoding's one ambiguity resolved: an empty
// list of alternative paths is no list (it encodes as none).
func canonical(t Topology) Topology {
	if t.Graph == nil {
		return t
	}
	g := *t.Graph
	g.Routes = append([]topo.Route(nil), g.Routes...)
	for i := range g.Routes {
		if len(g.Routes[i].Alts) == 0 {
			g.Routes[i].Alts = nil
		}
	}
	t.Graph = &g
	return t
}
