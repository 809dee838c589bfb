package topo

import (
	"fmt"
	"slices"

	"learnability/internal/netsim"
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/units"
)

// Edge is one unidirectional link in a Graph description: a rate and a
// propagation delay. Edges carry no queueing discipline — queues are
// supplied at Build time — so a Graph is a pure, JSON-serializable
// description that can cross process boundaries (the sharded trainer
// ships topologies inside its job config).
type Edge struct {
	// Rate is the link's serialization rate.
	Rate units.Rate `json:"rate"`
	// Prop is the link's one-way propagation delay.
	Prop units.Duration `json:"prop"`
	// Buffer, when positive, fixes this link's gateway buffer capacity
	// in bytes, used verbatim — it overrides whatever sizing policy
	// the scenario applies (spec-wide or per-link BDP multiples,
	// including their two-packet floor). 0 means "no override".
	// Like the rest of the description it is data, so per-link buffers
	// ship across the shard wire protocol inside the training config.
	Buffer int `json:"buffer,omitempty"`
}

// Route is one flow's path set through a Graph: the primary path (the
// edges it traverses in order), optional equal-cost alternative paths,
// and the delay of its uncongested reverse (ACK) path.
type Route struct {
	// Links lists edge indices in traversal order. A flow's packets
	// enter Links[0], exit each edge into the next, and reach the
	// flow's receiver after the last.
	Links []int `json:"links"`
	// Alts lists equal-cost alternative paths, each an edge walk like
	// Links. All of a flow's paths must start at the same edge (the
	// host's single uplink — the sender owns one NIC), and the union
	// of per-edge successor choices must be acyclic; Validate enforces
	// both. How packets spread over the set is the Graph's Routing
	// policy.
	Alts [][]int `json:"alts,omitempty"`
	// Reverse is the reverse-path delay ACKs experience. Zero means
	// "equal to the forward propagation sum" (symmetric paths, the
	// common case).
	Reverse units.Duration `json:"reverse,omitempty"`
}

// numPaths is the number of paths in the route's set.
func (rt *Route) numPaths() int { return 1 + len(rt.Alts) }

// path returns the route's i-th path: the primary first, then the
// alternates.
func (rt *Route) path(i int) []int {
	if i == 0 {
		return rt.Links
	}
	return rt.Alts[i-1]
}

// Graph is a declarative multi-hop topology: links are edges, and every
// flow carries an explicit path set. Build compiles the graph once into
// a netsim.Network whose per-link next-hop tables preserve the
// simulator's allocation-free per-packet forwarding.
type Graph struct {
	// Edges are the graph's unidirectional links.
	Edges []Edge `json:"edges"`
	// Routes holds one path set per flow, in flow order.
	Routes []Route `json:"routes"`
	// Routing selects how flows with alternative paths spread packets
	// over them (ECMP, Spray, Adaptive). Irrelevant — and omitted from
	// JSON — for single-path graphs, where the zero value (ECMP)
	// compiles to exactly the classic tables.
	Routing RoutingPolicy `json:"routing,omitempty"`
}

// Validate checks the description: at least one edge and one route,
// positive rates, non-negative delays, and every delay — a packet's
// serialization (which must not round to zero), a propagation, a
// reverse path — at most a day, every path (primary and
// alternates) a non-empty walk over distinct in-range edges, all of a
// flow's paths sharing their first edge, a known routing policy, and —
// for multipath routes — an acyclic union of per-edge successor
// choices, so per-packet selection that mixes segments of different
// paths still terminates at the receiver. It returns nil for a
// buildable graph.
func (g *Graph) Validate() error {
	if err := g.validateData(); err != nil {
		return err
	}
	return g.validatePaths()
}

// validateData is the part of Validate that reads no path: the counts,
// the policy, every edge and every reverse delay. It allocates nothing,
// so a recycled world whose routes are the ones it last compiled checks
// only this much.
func (g *Graph) validateData() error {
	if len(g.Edges) == 0 {
		return fmt.Errorf("topo: graph has no edges")
	}
	if len(g.Routes) == 0 {
		return fmt.Errorf("topo: graph has no routes")
	}
	if !g.Routing.Valid() {
		return fmt.Errorf("topo: unknown routing policy %d", int(g.Routing))
	}
	for i, e := range g.Edges {
		if e.Rate <= 0 {
			return fmt.Errorf("topo: edge %d has non-positive rate %v", i, e.Rate)
		}
		if tx := e.Rate.TransmissionTime(packet.MTU); tx <= 0 || tx > maxDelay {
			return fmt.Errorf("topo: edge %d at %v serializes a packet in %v, outside (0, %v]", i, e.Rate, tx, maxDelay)
		}
		if e.Prop < 0 || e.Prop > maxDelay {
			return fmt.Errorf("topo: edge %d has propagation delay %v outside [0, %v]", i, e.Prop, maxDelay)
		}
		if e.Buffer < 0 {
			return fmt.Errorf("topo: edge %d has negative buffer override %d", i, e.Buffer)
		}
	}
	for f := range g.Routes {
		if r := g.Routes[f].Reverse; r < 0 || r > maxDelay {
			return fmt.Errorf("topo: route %d has reverse delay %v outside [0, %v]", f, r, maxDelay)
		}
	}
	return nil
}

// maxDelay bounds every delay a graph carries — a packet's
// serialization on an edge, an edge's propagation, a route's reverse
// path — at a day, so that a path's delays summed and added to a run's
// clock stay far inside int64 nanoseconds. A serialization that rounds
// to nothing is rejected too: on a path without propagation delay it
// would let a window of packets cross and be acknowledged without the
// clock ever advancing.
const maxDelay = 86400 * units.Second

// validatePaths is the rest of Validate: every path of every route, and
// the union of a multipath route's successor choices.
func (g *Graph) validatePaths() error {
	// seen[li] holds the number of the last path that visited edge li,
	// so one slice serves every path of every route.
	seen := make([]int, len(g.Edges))
	var cyc cycleCheck
	npath := 0
	for f := range g.Routes {
		rt := &g.Routes[f]
		for pi := 0; pi < rt.numPaths(); pi++ {
			path := rt.path(pi)
			if len(path) == 0 {
				return fmt.Errorf("topo: route %d path %d is empty", f, pi)
			}
			npath++
			for _, li := range path {
				if li < 0 || li >= len(g.Edges) {
					return fmt.Errorf("topo: route %d path %d references edge %d of %d", f, pi, li, len(g.Edges))
				}
				if seen[li] == npath {
					return fmt.Errorf("topo: route %d path %d visits edge %d twice", f, pi, li)
				}
				seen[li] = npath
			}
			if path[0] != rt.Links[0] {
				return fmt.Errorf("topo: route %d path %d starts at edge %d, not the flow's first hop %d (all paths share the sender's uplink)",
					f, pi, path[0], rt.Links[0])
			}
		}
		if len(rt.Alts) > 0 {
			if err := cyc.check(g, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// cycleCheck verifies that a flow's union successor relation — the set
// of next-edge choices a packet can face at each edge, over all of the
// flow's paths — contains no cycle. Each path is individually acyclic,
// but per-packet selection can mix segments of different paths, so the
// union must be a DAG for forwarding to terminate. Its slices are
// scratch, reused from flow to flow.
type cycleCheck struct {
	g     *Graph
	f     int
	state []uint8 // per edge: unvisited, on the DFS stack, or done
	succ  []int   // successor lists of the edges on the DFS stack
}

const (
	edgeUnvisited = iota
	edgeOnStack
	edgeDone
)

func (c *cycleCheck) check(g *Graph, f int) error {
	c.g, c.f = g, f
	if c.state == nil {
		c.state = make([]uint8, len(g.Edges))
	}
	clear(c.state)
	return c.visit(g.Routes[f].Links[0])
}

func (c *cycleCheck) visit(li int) error {
	switch c.state[li] {
	case edgeOnStack:
		return fmt.Errorf("topo: route %d's alternative paths create a forwarding cycle through edge %d", c.f, li)
	case edgeDone:
		return nil
	}
	c.state[li] = edgeOnStack
	lo := len(c.succ)
	c.succ = c.g.appendSucc(c.succ, c.f, li)
	for i, hi := lo, len(c.succ); i < hi; i++ {
		if s := c.succ[i]; s >= 0 { // -1 is the receiver: terminal
			if err := c.visit(s); err != nil {
				return err
			}
		}
	}
	c.succ = c.succ[:lo]
	c.state[li] = edgeDone
	return nil
}

// appendSucc appends to dst flow f's deduplicated successor choices at
// edge li, in deterministic path order (primary path first, then
// alternates); -1 denotes the flow's receiver. Nothing is appended
// when the flow never traverses li. Route compilation and cycle
// checking share this relation, so the compiled tables follow exactly
// the validated graph.
func (g *Graph) appendSucc(dst []int, f, li int) []int {
	base := len(dst)
	rt := &g.Routes[f]
	for pi := 0; pi < rt.numPaths(); pi++ {
		path := rt.path(pi)
		for pos, l := range path {
			if l != li {
				continue
			}
			s := -1
			if pos+1 < len(path) {
				s = path[pos+1]
			}
			if !slices.Contains(dst[base:], s) {
				dst = append(dst, s)
			}
			break
		}
	}
	return dst
}

// NumFlows reports the number of flows the graph routes.
func (g *Graph) NumFlows() int { return len(g.Routes) }

// PathProp is flow f's minimum one-way forward propagation delay: the
// smallest edge-delay sum over the flow's paths. For single-path routes
// (and fat-trees with symmetric tier delays, where every path sums the
// same) this is just the path's delay; under asymmetric alternates it
// is the best case, which is what a minimum-RTT estimator converges to.
func (g *Graph) PathProp(f int) units.Duration {
	var best units.Duration
	rt := &g.Routes[f]
	for pi := 0; pi < rt.numPaths(); pi++ {
		var sum units.Duration
		for _, li := range rt.path(pi) {
			sum += g.Edges[li].Prop
		}
		if pi == 0 || sum < best {
			best = sum
		}
	}
	return best
}

// ReverseDelay is flow f's reverse-path (ACK) delay: the route's
// explicit Reverse, or the forward propagation sum when unset.
func (g *Graph) ReverseDelay(f int) units.Duration {
	if r := g.Routes[f].Reverse; r != 0 {
		return r
	}
	return g.PathProp(f)
}

// MinRTT is flow f's minimum possible round-trip time: forward
// propagation plus the reverse-path delay.
func (g *Graph) MinRTT(f int) units.Duration {
	return g.PathProp(f) + g.ReverseDelay(f)
}

// FairShares is every flow's equal split of its path bottleneck, in
// flow order: the minimum over the primary path's edges of the edge
// rate divided by the number of flows that can traverse that edge (a
// flow counts if any of its paths, primary or alternate, includes it).
// It is derived from path membership, so it is correct for any
// single-path graph — including parking lots whose links carry other
// than two flows each. For multipath routes it is an approximation
// along the primary path: contending flows that merely *can* use an
// edge still count against it, so symmetric fat-trees (where every
// flow's paths are statistically alike) get the intended per-host share
// while asymmetric placements read as the conservative single-path
// bound. The per-edge flow counts are taken in one pass over the
// routes, so the whole table costs one walk of the graph.
func (g *Graph) FairShares() []units.Rate {
	var sc shareScratch
	return g.fairShares(&sc)
}

// shareScratch is the storage a fair-share table is computed in.
type shareScratch struct {
	shares        []units.Rate
	flowsOn, seen []int
}

// fairShares is FairShares computed in sc's storage, grown as needed;
// the table it returns is sc.shares.
func (g *Graph) fairShares(sc *shareScratch) []units.Rate {
	flowsOn := slices.Grow(sc.flowsOn[:0], len(g.Edges))[:len(g.Edges)]
	seen := slices.Grow(sc.seen[:0], len(g.Edges))[:len(g.Edges)] // 1 + the last flow counted on the edge
	clear(flowsOn)
	clear(seen)
	for f := range g.Routes {
		rt := &g.Routes[f]
		for pi := 0; pi < rt.numPaths(); pi++ {
			for _, li := range rt.path(pi) {
				if seen[li] != f+1 {
					seen[li] = f + 1
					flowsOn[li]++
				}
			}
		}
	}
	shares := slices.Grow(sc.shares[:0], len(g.Routes))[:len(g.Routes)]
	for f := range g.Routes {
		for i, li := range g.Routes[f].Links {
			share := g.Edges[li].Rate / units.Rate(flowsOn[li])
			if i == 0 || share < shares[f] {
				shares[f] = share
			}
		}
	}
	sc.shares, sc.flowsOn, sc.seen = shares, flowsOn, seen
	return shares
}

// validateBuild checks the full NewWorld/Rebuild input set: the graph
// itself (its paths only when paths is set), the queue-per-edge and
// flow-per-route correspondences, and that every flow has an algorithm
// and a workload.
func validateBuild(g *Graph, paths bool, queues []queue.Discipline, flows []FlowSpec) error {
	if err := g.validateData(); err != nil {
		return err
	}
	if paths {
		if err := g.validatePaths(); err != nil {
			return err
		}
	}
	if len(flows) != len(g.Routes) {
		return fmt.Errorf("topo: %d flows for %d routes", len(flows), len(g.Routes))
	}
	if len(queues) != len(g.Edges) {
		return fmt.Errorf("topo: %d queues for %d edges", len(queues), len(g.Edges))
	}
	for i, q := range queues {
		if q == nil {
			return fmt.Errorf("topo: nil queue for edge %d", i)
		}
	}
	for i, fs := range flows {
		if fs.Alg == nil {
			return fmt.Errorf("topo: flow %d has nil congestion-control algorithm", i)
		}
		if fs.Workload == nil {
			return fmt.Errorf("topo: flow %d has nil workload", i)
		}
	}
	return nil
}

// ecmpIndex is the compile-time ECMP flow-hash: a splitmix64-style
// avalanche over (flow, link) reduced modulo the candidate count. Being
// a pure function of the pair, every packet of a flow takes the same
// path (path stability), replays are deterministic, and different links
// decorrelate so a flow's choices don't collapse onto one spine.
func ecmpIndex(flow, link, n int) int {
	h := uint64(flow)*0x9e3779b97f4a7c15 ^ uint64(link)*0xbf58476d1ce4e5b9
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

// installRoutes compiles each flow's path set into per-link next-hop
// delivery tables. Fanout-1 entries (all entries of a single-path
// graph) compile to the classic flat table — a single slice load per
// packet. Fanout>1 entries compile per policy: ECMP resolves its
// flow-hash here, leaving a single next hop (so ECMP forwarding is the
// fast path too); Spray and Adaptive install the candidate set and a
// packet-time selector. Links with no fanout>1 entry get the plain
// route table, so classic topologies are untouched.
func installRoutes(g *Graph, nw *netsim.Network) {
	nf := len(g.Routes)
	var succ []int
	for li, link := range nw.Links {
		next := make([]netsim.Deliverer, nf)
		var multi []netsim.NextHops
		for f := range g.Routes {
			succ = g.appendSucc(succ[:0], f, li)
			switch {
			case len(succ) == 0:
				// Flow never traverses this link.
			case len(succ) == 1:
				next[f] = hopDeliverer(succ[0], f, nw)
			case g.Routing == ECMP:
				next[f] = hopDeliverer(succ[ecmpIndex(f, li, len(succ))], f, nw)
			default:
				if multi == nil {
					multi = make([]netsim.NextHops, nf)
				}
				cands := make([]netsim.Deliverer, len(succ))
				for i, s := range succ {
					cands[i] = hopDeliverer(s, f, nw)
				}
				multi[f].Cands = cands
			}
		}
		if multi != nil {
			link.SetMultiRoute(next, multi, g.Routing.Selector())
		} else {
			link.SetRoute(next)
		}
	}
}

// hopDeliverer resolves a successor-edge index (-1 = receiver) to the
// Deliverer packets of flow f are handed to.
func hopDeliverer(succ, f int, nw *netsim.Network) netsim.Deliverer {
	if succ < 0 {
		return nw.Flows[f].Receiver
	}
	return nw.Links[succ]
}

// World is a built network together with what lets the next run take
// it over instead of building another. A world keeps, from run to run:
// the scheduler's event arena, the packet free list, every sender's and
// receiver's rings and the delay lanes' storage, each link's queue when
// the next run asks for the same one, the links' next-hop tables
// while the routes and routing policy they were compiled from stay the
// same (and with them the knowledge that those paths are valid), and
// the storage FairShares computes in. Everything else — rates, delays (and with them which stages
// share a lane), algorithms, workloads, counters, control-law state —
// is re-derived by Rebuild, so a rebuilt world is observably identical
// to a new one built from the same inputs.
type World struct {
	// Net is the network, ready to run once NewWorld or Rebuild
	// returns.
	Net *netsim.Network

	// routeKey spells out the routes and policy the links' tables were
	// compiled from; scratch is where Rebuild spells out the next
	// run's to compare.
	routeKey, scratch []int

	// shares is where FairShares computes.
	shares shareScratch
}

// appendRouteKey appends everything route compilation reads from the
// graph: the policy, and every path of every flow, length-prefixed so
// that equal keys mean equal path sets.
func appendRouteKey(dst []int, g *Graph) []int {
	dst = append(dst, int(g.Routing), len(g.Routes))
	for f := range g.Routes {
		rt := &g.Routes[f]
		dst = append(dst, rt.numPaths())
		for pi := 0; pi < rt.numPaths(); pi++ {
			dst = append(dst, len(rt.path(pi)))
			dst = append(dst, rt.path(pi)...)
		}
	}
	return dst
}

// NewWorld compiles the graph into a runnable network: one netsim.Link
// per edge (queues[i] gating edge i), one sender/receiver pair per
// route, and a flat flow-indexed next-hop table on every link so
// per-packet forwarding stays allocation-free. Per-flow PropDelay,
// MinRTT, and reverse-path delay are derived from path membership.
func NewWorld(g *Graph, queues []queue.Discipline, flows []FlowSpec) (*World, error) {
	if err := validateBuild(g, true, queues, flows); err != nil {
		return nil, err
	}
	nw := netsim.New()
	for i, e := range g.Edges {
		nw.NewLink(e.Rate, e.Prop, queues[i])
	}
	for f, fs := range flows {
		prop := g.PathProp(f)
		st := &netsim.FlowStats{Flow: f, PropDelay: prop, MinRTT: prop + g.ReverseDelay(f)}
		rcv := nw.NewReceiver(f, g.ReverseDelay(f), st)
		snd := netsim.NewSender(nw.Sched, f, fs.Alg, nw.Links[g.Routes[f].Links[0]], st)
		rcv.SetSender(snd)
		nw.AddFlow(&netsim.Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: fs.Workload})
	}
	installRoutes(g, nw)
	return &World{Net: nw, routeKey: appendRouteKey(nil, g)}, nil
}

// Build is NewWorld for callers that run the network once and keep
// nothing.
func Build(g *Graph, queues []queue.Discipline, flows []FlowSpec) (*netsim.Network, error) {
	w, err := NewWorld(g, queues, flows)
	if err != nil {
		return nil, err
	}
	return w.Net, nil
}

// Rebuild recompiles the graph into the world's network after a
// finished run. The world must have the graph's shape: the same number
// of edges and routes. queues[i] may be the queue link i already has
// (Link.Reinit resets it) or another; the next-hop tables are compiled
// again, and the paths validated again, only if the routes or the
// policy differ from those they were last compiled from.
func (w *World) Rebuild(g *Graph, queues []queue.Discipline, flows []FlowSpec) error {
	nw := w.Net
	if len(nw.Links) != len(g.Edges) || len(nw.Flows) != len(g.Routes) {
		return fmt.Errorf("topo: network shape %d links/%d flows cannot host graph with %d edges/%d routes",
			len(nw.Links), len(nw.Flows), len(g.Edges), len(g.Routes))
	}
	w.scratch = appendRouteKey(w.scratch[:0], g)
	same := slices.Equal(w.routeKey, w.scratch)
	if err := validateBuild(g, !same, queues, flows); err != nil {
		return err
	}
	nw.Reset()
	for i, e := range g.Edges {
		nw.Links[i].Reinit(e.Rate, e.Prop, queues[i])
	}
	for f, fs := range flows {
		fl := nw.Flows[f]
		prop := g.PathProp(f)
		fl.Stats.Reset(f, prop, prop+g.ReverseDelay(f))
		fl.Receiver.Reinit(g.ReverseDelay(f))
		fl.Sender.Reinit(fs.Alg, nw.Links[g.Routes[f].Links[0]])
		fl.Workload = fs.Workload
	}
	if !same {
		installRoutes(g, nw)
		w.routeKey, w.scratch = w.scratch, w.routeKey
	}
	return nil
}

// FairShares is g.FairShares computed in storage the world keeps for
// it: the table is valid until the world's next FairShares call.
func (w *World) FairShares(g *Graph) []units.Rate {
	return g.fairShares(&w.shares)
}
