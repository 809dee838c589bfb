// Package topo describes network topologies as declarative graphs —
// links are edges, each flow carries an explicit multi-hop path — and
// compiles them into runnable netsim Networks. The paper's two shapes
// (the dumbbell used by every experiment except §4.4, and Figure 5's
// two-bottleneck "parking lot") are thin constructors over the graph
// engine, alongside an N-hop parking-lot family with optional
// cross-traffic that opens the scenario space beyond the paper.
package topo

import (
	"fmt"

	"learnability/internal/cc"
	"learnability/internal/netsim"
	"learnability/internal/queue"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// FlowSpec describes one sender-receiver pair: its congestion-control
// algorithm and its workload.
type FlowSpec struct {
	// Alg is the flow's congestion controller.
	Alg cc.Algorithm
	// Workload is the on/off process driving the flow's sender.
	Workload workload.Source
}

// DumbbellGraph describes a dumbbell: one shared bottleneck link
// crossed by nflows flows. The one-way propagation delay is minRTT/2
// and the reverse path carries the remainder, so each flow's minimum
// RTT is exactly minRTT even when minRTT is an odd number of
// nanoseconds.
func DumbbellGraph(rate units.Rate, minRTT units.Duration, nflows int) *Graph {
	g := new(Graph)
	g.SetDumbbell(rate, minRTT, nflows)
	return g
}

// SetDumbbell makes g the graph DumbbellGraph describes, in g's own
// edge and route storage: a layout rewritten for every run of a
// recycled world allocates nothing once it has grown.
func (g *Graph) SetDumbbell(rate units.Rate, minRTT units.Duration, nflows int) {
	prop := minRTT / 2
	g.Edges = append(g.Edges[:0], Edge{Rate: rate, Prop: prop})
	g.setRoutes(nflows)
	for i := range g.Routes {
		rt := &g.Routes[i]
		rt.Links = append(rt.Links, 0)
		rt.Reverse = minRTT - prop
	}
	g.Routing = ECMP
}

// setRoutes makes g.Routes n empty routes, keeping the path storage of
// the routes it already had.
func (g *Graph) setRoutes(n int) {
	if c := cap(g.Routes); c < n {
		g.Routes = append(g.Routes[:c], make([]Route, n-c)...)
	}
	g.Routes = g.Routes[:n]
	for i := range g.Routes {
		rt := &g.Routes[i]
		*rt = Route{Links: rt.Links[:0]}
	}
}

// ParkingLotGraph describes an N-hop parking lot: len(rates) links in
// series, each with one-way propagation hopProp; nLong flows cross
// every hop, and, when cross is set, one additional single-hop flow
// rides each link (the cross traffic). Flow order is the nLong long
// flows first, then the cross flows in link order — for two hops, one
// long flow, and cross traffic this is exactly the paper's Figure 5
// topology and flow numbering.
func ParkingLotGraph(rates []units.Rate, hopProp units.Duration, nLong int, cross bool) *Graph {
	g := new(Graph)
	g.SetParkingLot(rates, hopProp, nLong, cross)
	return g
}

// SetParkingLot makes g the graph ParkingLotGraph describes, in g's own
// edge and route storage, as SetDumbbell does.
func (g *Graph) SetParkingLot(rates []units.Rate, hopProp units.Duration, nLong int, cross bool) {
	g.Edges = g.Edges[:0]
	for _, r := range rates {
		g.Edges = append(g.Edges, Edge{Rate: r, Prop: hopProp})
	}
	n := nLong
	if cross {
		n += len(rates)
	}
	g.setRoutes(n)
	for f := range g.Routes {
		rt := &g.Routes[f]
		if f < nLong {
			for li := range rates {
				rt.Links = append(rt.Links, li)
			}
		} else {
			rt.Links = append(rt.Links, f-nLong)
		}
	}
	g.Routing = ECMP
}

// Dumbbell builds a network of len(flows) senders sharing one
// bottleneck link of the given rate, with q as the gateway discipline.
// The one-way propagation delay is minRTT/2 in each direction, so the
// minimum RTT matches the paper's scenario tables.
func Dumbbell(rate units.Rate, minRTT units.Duration, q queue.Discipline, flows []FlowSpec) (*netsim.Network, error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("topo: dumbbell with no flows")
	}
	if minRTT <= 0 {
		return nil, fmt.Errorf("topo: dumbbell with non-positive minRTT %v", minRTT)
	}
	queues := []queue.Discipline{q}
	return Build(DumbbellGraph(rate, minRTT, len(flows)), queues, flows)
}

// ParkingLot builds the paper's Figure 5 topology: nodes A--B--C with
// Link 1 (A to B) and Link 2 (B to C), each with one-way propagation
// hopProp. Flow 0 crosses both links (A to C), flow 1 crosses only
// Link 1 (A to B), and flow 2 crosses only Link 2 (B to C). flows must
// therefore have exactly three entries, in that order.
func ParkingLot(rate1, rate2 units.Rate, hopProp units.Duration,
	q1, q2 queue.Discipline, flows []FlowSpec) (*netsim.Network, error) {

	if len(flows) != 3 {
		return nil, fmt.Errorf("topo: parking lot needs exactly 3 flows, got %d", len(flows))
	}
	if hopProp <= 0 {
		return nil, fmt.Errorf("topo: parking lot with non-positive hop propagation %v", hopProp)
	}
	g := ParkingLotGraph([]units.Rate{rate1, rate2}, hopProp, 1, true)
	return Build(g, []queue.Discipline{q1, q2}, flows)
}
