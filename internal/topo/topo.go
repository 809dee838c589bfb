// Package topo describes network topologies as declarative graphs —
// links are edges, each flow carries an explicit multi-hop path — and
// compiles them into runnable netsim Networks (NewWorld). The paper's
// two shapes (the dumbbell used by every experiment except §4.4, and
// Figure 5's two-bottleneck "parking lot") are graphs written in place
// (SetDumbbell, SetParkingLot), alongside an N-hop parking-lot family
// with optional cross-traffic that opens the scenario space beyond the
// paper, and fat trees.
package topo

import (
	"learnability/internal/cc"
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

// SetDumbbell makes g a dumbbell, in g's own edge and route storage:
// one shared bottleneck link crossed by nflows flows. The one-way
// propagation delay is minRTT/2 and the reverse path carries the
// remainder, so each flow's minimum RTT is exactly minRTT even when
// minRTT is an odd number of nanoseconds. A layout rewritten for every
// run of a recycled world allocates nothing once it has grown.
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

// SetParkingLot makes g an N-hop parking lot, in g's own edge and route
// storage, as SetDumbbell does: len(rates) links in series, each with
// one-way propagation hopProp; nLong flows cross every hop, and, when
// cross is set, one additional single-hop flow rides each link (the
// cross traffic). Flow order is the nLong long flows first, then the
// cross flows in link order — for two hops, one long flow, and cross
// traffic this is exactly the paper's Figure 5 topology and flow
// numbering.
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
