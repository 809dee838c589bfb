// Package scenario turns a declarative network-configuration
// description (§3.1: topology, senders, workload, buffering) into a
// runnable simulation and reports the per-flow results. Both the Remy
// trainer (which evaluates candidate protocols on draws from the
// training distribution) and the experiment runners (which evaluate
// trained protocols on testing sweeps) execute scenarios through this
// package.
//
// Topologies are declarative graph descriptions (internal/topo): the
// built-in families — the dumbbell, the paper's Figure 5 parking lot,
// and its N-hop generalization with optional cross-traffic — compile to
// the same link/path graph an explicit Topology.Graph does, so every
// scenario runs through one engine.
package scenario

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"learnability/internal/cc"
	"learnability/internal/netsim"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/topo"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// TopologyKind enumerates the built-in topology families.
type TopologyKind int

// Supported topology families.
const (
	// KindDumbbell is a single shared bottleneck crossed by every
	// sender.
	KindDumbbell TopologyKind = iota
	// KindParkingLot is the N-hop parking lot: Hops bottleneck links in
	// series, LongFlows flows crossing all of them, and (with
	// CrossTraffic) one single-hop flow per link.
	KindParkingLot
	// KindGraph is an explicit link/path graph description.
	KindGraph
	// KindFatTree is a k-ary fat-tree datacenter fabric with multipath
	// routing (ECMP, spray, or adaptive) and a flow placement.
	KindFatTree
)

// String names the topology family for experiment tables.
func (k TopologyKind) String() string {
	switch k {
	case KindDumbbell:
		return "dumbbell"
	case KindParkingLot:
		return "parking-lot"
	case KindGraph:
		return "graph"
	case KindFatTree:
		return "fat-tree"
	default:
		return "unknown"
	}
}

// Placement enumerates the fat-tree flow placements.
type Placement int

// Supported fat-tree placements.
const (
	// PlacementPermutation gives every host one flow to the host half
	// the fabric away (pod-crossing; the default).
	PlacementPermutation Placement = iota
	// PlacementAllToAll places one flow per ordered host pair.
	PlacementAllToAll
	// PlacementIncast converges IncastN flows on host 0.
	PlacementIncast
)

// String names the placement for experiment tables and CLI flags.
func (p Placement) String() string {
	switch p {
	case PlacementPermutation:
		return "permutation"
	case PlacementAllToAll:
		return "alltoall"
	case PlacementIncast:
		return "incast"
	default:
		return "unknown"
	}
}

// ParsePlacement resolves a placement name ("permutation", "alltoall",
// "incast") for CLI flags.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "permutation":
		return PlacementPermutation, nil
	case "alltoall", "all-to-all":
		return PlacementAllToAll, nil
	case "incast":
		return PlacementIncast, nil
	}
	return 0, fmt.Errorf("scenario: unknown placement %q (want permutation, alltoall, or incast)", s)
}

// ParseBuffering resolves a gateway-queue name ("droptail", "nodrop",
// "codel", "sfqcodel") for CLI flags.
func ParseBuffering(s string) (Buffering, error) {
	switch s {
	case "droptail", "drop-tail":
		return FiniteDropTail, nil
	case "nodrop", "no-drop", "infinite":
		return NoDrop, nil
	case "codel":
		return CoDelAQM, nil
	case "sfqcodel", "sfq-codel":
		return SfqCoDel, nil
	}
	return 0, fmt.Errorf("scenario: unknown queue %q (want droptail, nodrop, codel, or sfqcodel)", s)
}

// Topology declaratively selects the network shape. The zero value is
// a dumbbell; Dumbbell and ParkingLot name the paper's two shapes, and
// ParkingLotN opens the N-hop family. Topology descriptions are
// JSON-serializable, so training configurations carry them across the
// sharded trainer's wire protocol.
type Topology struct {
	// Kind selects the topology family.
	Kind TopologyKind `json:"kind"`
	// Hops is the number of bottleneck links (KindParkingLot; >= 1).
	Hops int `json:"hops,omitempty"`
	// LongFlows is the number of flows crossing every hop
	// (KindParkingLot; 0 means 1).
	LongFlows int `json:"long_flows,omitempty"`
	// CrossTraffic adds one single-hop flow per link (KindParkingLot).
	CrossTraffic bool `json:"cross,omitempty"`
	// Graph is the explicit description for KindGraph.
	Graph *topo.Graph `json:"graph,omitempty"`
	// FatTreeK is the fat-tree arity (KindFatTree; even, >= 2).
	FatTreeK int `json:"k,omitempty"`
	// Routing spreads fat-tree flows over their equal-cost paths
	// (KindFatTree). Serialized by name ("ecmp", "spray", "adaptive");
	// unknown names fail decoding rather than degrading to a default.
	Routing topo.RoutingPolicy `json:"routing,omitempty"`
	// Placement selects the fat-tree flow placement (KindFatTree).
	Placement Placement `json:"placement,omitempty"`
	// IncastN is the number of converging flows for PlacementIncast.
	IncastN int `json:"incast_n,omitempty"`
}

// The paper's two topologies.
var (
	// Dumbbell is a single shared bottleneck.
	Dumbbell = Topology{Kind: KindDumbbell}
	// ParkingLot is the paper's Figure 5 two-bottleneck topology; it
	// requires exactly three senders (flow 0 crosses both links).
	ParkingLot = Topology{Kind: KindParkingLot, Hops: 2, CrossTraffic: true}
)

// ParkingLotN describes an N-hop parking lot: hops bottleneck links in
// series, one flow crossing all of them and — when cross is set — one
// single-hop cross-traffic flow per link. ParkingLotN(2, true) is the
// paper's Figure 5 shape.
func ParkingLotN(hops int, cross bool) Topology {
	return Topology{Kind: KindParkingLot, Hops: hops, CrossTraffic: cross}
}

// GraphTopology wraps an explicit link/path graph description.
func GraphTopology(g *topo.Graph) Topology {
	return Topology{Kind: KindGraph, Graph: g}
}

// FatTreeTopology describes a k-ary fat-tree with a pod-crossing
// permutation placement (one flow per host) under the given routing
// policy.
func FatTreeTopology(k int, routing topo.RoutingPolicy) Topology {
	return Topology{Kind: KindFatTree, FatTreeK: k, Routing: routing}
}

// FatTreeIncast describes a k-ary fat-tree with n flows converging on
// host 0 under the given routing policy.
func FatTreeIncast(k, n int, routing topo.RoutingPolicy) Topology {
	return Topology{Kind: KindFatTree, FatTreeK: k, Routing: routing, Placement: PlacementIncast, IncastN: n}
}

// longFlows resolves the parking-lot family's long-flow count.
func (t Topology) longFlows() int {
	if t.LongFlows <= 0 {
		return 1
	}
	return t.LongFlows
}

// Validate checks that the topology description itself is well formed.
// Whether the senders agree with its flow count is a rule of the spec
// that carries both (Spec.Validate).
func (t Topology) Validate() error {
	switch t.Kind {
	case KindDumbbell:
		return nil
	case KindParkingLot:
		if t.Hops < 1 {
			return fmt.Errorf("scenario: parking lot needs at least 1 hop, got %d", t.Hops)
		}
		return nil
	case KindGraph:
		if t.Graph == nil {
			return fmt.Errorf("scenario: graph topology without a graph")
		}
		return t.Graph.Validate()
	case KindFatTree:
		if t.FatTreeK < 2 || t.FatTreeK%2 != 0 {
			return fmt.Errorf("scenario: fat-tree arity must be even and >= 2, got %d", t.FatTreeK)
		}
		if !t.Routing.Valid() {
			return fmt.Errorf("scenario: fat-tree with unknown routing policy %d", int(t.Routing))
		}
		hosts := t.FatTreeK * t.FatTreeK * t.FatTreeK / 4
		switch t.Placement {
		case PlacementPermutation, PlacementAllToAll:
			return nil
		case PlacementIncast:
			if t.IncastN < 1 || t.IncastN > hosts-1 {
				return fmt.Errorf("scenario: fat-tree incast of %d flows on %d hosts (want 1..%d)", t.IncastN, hosts, hosts-1)
			}
			return nil
		default:
			return fmt.Errorf("scenario: unknown fat-tree placement %d", t.Placement)
		}
	default:
		return fmt.Errorf("scenario: unknown topology kind %d", t.Kind)
	}
}

// FlowCount reports how many senders the topology requires, given the
// number a dumbbell would use (the dumbbell is the only family whose
// flow count is free).
func (t Topology) FlowCount(dumbbellSenders int) int {
	switch t.Kind {
	case KindParkingLot:
		n := t.longFlows()
		if t.CrossTraffic {
			n += t.Hops
		}
		return n
	case KindGraph:
		if t.Graph == nil {
			return 0
		}
		return t.Graph.NumFlows()
	case KindFatTree:
		hosts := t.FatTreeK * t.FatTreeK * t.FatTreeK / 4
		switch t.Placement {
		case PlacementAllToAll:
			return hosts * (hosts - 1)
		case PlacementIncast:
			return t.IncastN
		default:
			return hosts
		}
	default:
		return dumbbellSenders
	}
}

// Buffering selects the gateway queue.
type Buffering int

// Supported gateway queues.
const (
	// FiniteDropTail is a FIFO with BufferBDP bandwidth-delay products
	// of buffering.
	FiniteDropTail Buffering = iota
	// NoDrop is an unbounded FIFO (the paper's "no packet drops"
	// scenarios).
	NoDrop
	// SfqCoDel runs sfqCoDel at the gateway with BufferBDP of hard
	// backstop.
	SfqCoDel
	// CoDelAQM runs a single shared CoDel queue at the gateway with
	// BufferBDP of hard backstop (no fair queueing).
	CoDelAQM
)

// Sender describes one endpoint.
type Sender struct {
	// Alg is the sender's congestion controller: an instance in its
	// fresh state, new or reinitialized, used by this run alone
	// (scenarios never share controller state).
	Alg cc.Algorithm
	// Delta is the sender's objective weight (§3.2).
	Delta float64
	// Workload optionally overrides the spec-level on/off process for
	// this sender (used by the deterministic Figure 8 schedule). Nil
	// means an exponential on/off source with the spec's means.
	Workload workload.Source
}

// Spec is one concrete network configuration plus its workload and
// duration.
type Spec struct {
	// Topology selects the network shape.
	Topology Topology

	// LinkSpeed is the default bottleneck rate: any link without a
	// per-link override runs at this rate.
	LinkSpeed units.Rate
	// LinkSpeeds optionally overrides the rate per link, in link
	// order; zero entries fall back to LinkSpeed.
	LinkSpeeds []units.Rate

	// MinRTT is the round-trip propagation delay of a dumbbell flow.
	// For the parking-lot family it is the *long* flow's minimum RTT;
	// each of Hops hops contributes MinRTT/(2*Hops) of one-way
	// propagation. Ignored by explicit graphs (their edges carry
	// delays), except as the per-link buffer-sizing RTT below.
	MinRTT units.Duration

	// Buffering selects every gateway queue.
	Buffering Buffering
	// BufferBDP is the gateway buffer depth, finite and >= 0, in
	// bandwidth-delay products of the link it sits on (its rate times
	// MinRTT). An explicit topo.Edge.Buffer (bytes) on a graph edge
	// takes precedence over it.
	BufferBDP float64

	// MeanOn and MeanOff are the exponential workload means.
	MeanOn, MeanOff units.Duration

	// Senders are the endpoints, one flow each, in flow order.
	Senders []Sender

	// ECN enables the ECN signal plane: every sender stamps its data
	// packets ECN-capable (ECT) and every gateway queue marks instead
	// of drops — CoDel families mark wherever the control law schedules
	// a drop; FiniteDropTail becomes a marking drop-tail that CE-marks
	// arrivals past a byte threshold. The CE mark echoes back on ACKs
	// as Feedback.ECNEcho. Incompatible with NoDrop buffering (an
	// unbounded queue has no congestion point to signal).
	ECN bool
	// ECNThresholdBytes is the marking threshold for FiniteDropTail
	// under ECN, in bytes of instantaneous queue occupancy; 0 sizes it
	// at half the queue capacity. Ignored by the CoDel families, whose
	// sojourn-time target is the threshold.
	ECNThresholdBytes int

	// VarRate modulates every link's rate as a stochastic process
	// (on/off degradation or Markov-modulated WiFi-like tiers). The
	// zero value keeps rates constant.
	VarRate VarRate

	// Duration is the simulated run length.
	Duration units.Duration

	// Seed derives every random stream in the run (workloads). Label
	// separation keeps training and testing draws disjoint.
	Seed *rng.Stream

	// Probe, when non-nil, is invoked every ProbeInterval of simulated
	// time during the run (ProbeInterval defaults to 100 ms). Probes
	// can inspect sender state (e.g. Tao congestion signals) as the
	// simulation evolves.
	Probe func(now units.Time)
	// ProbeInterval is the simulated time between Probe calls
	// (default 100 ms).
	ProbeInterval units.Duration

	// Trace, when non-nil, receives a packet lifecycle event
	// (enqueue/dequeue/drop/mark/deliver) from every link and receiver
	// in the network. Tracers observe only — the telemetry invisibility
	// invariant — so traced runs produce bit-identical results to
	// untraced ones; the differential tests cross-check the two modes.
	Trace netsim.PacketTracer
}

// linkRate resolves link i's rate: the per-link override, then the
// spec-wide LinkSpeed.
func (s *Spec) linkRate(i int) units.Rate {
	if i < len(s.LinkSpeeds) && s.LinkSpeeds[i] > 0 {
		return s.LinkSpeeds[i]
	}
	return s.LinkSpeed
}

// Layout compiles the spec's topology into the concrete link/path
// graph the run will execute: built-in families are expanded with the
// spec's rates and delays, explicit graphs are returned as-is. Per-flow
// propagation, minimum RTT, and fair share all derive from this graph.
// It refuses what Validate does short of topo's check of the graph.
//
// The returned graph is read-only. An explicit graph is the spec's
// own, and a fat tree's Routes are shared with every other layout of
// the same arity and placement (each layout gets its own Edges).
func (s *Spec) Layout() (*topo.Graph, error) {
	if err := s.Topology.Validate(); err != nil {
		return nil, err
	}
	if err := s.rules(); err != nil {
		return nil, err
	}
	return s.layout(new(topo.Graph), new([]units.Rate))
}

// Validate returns nil exactly when Build(s) succeeds, and Build's (and
// Run's) error otherwise: the topology's rules, the spec's own, then
// topo's check of the laid-out graph. It builds no network; only a fat
// tree's shared route skeleton is made, as for Layout.
func (s Spec) Validate() error {
	lay, err := s.Layout()
	if err != nil {
		return err
	}
	return lay.Validate()
}

// rules checks a spec whose topology is valid: every rule of Build's
// short of topo's check of the laid-out graph. Run, Build, Layout and
// Validate all start here; it allocates nothing and walks no path.
func (s *Spec) rules() error {
	if s.Seed == nil {
		return fmt.Errorf("scenario: spec needs a seed stream")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: spec needs a positive duration")
	}
	switch s.Buffering {
	case FiniteDropTail, NoDrop, SfqCoDel, CoDelAQM:
	default:
		return fmt.Errorf("scenario: unknown buffering %d", s.Buffering)
	}
	if !(s.BufferBDP >= 0) || math.IsInf(s.BufferBDP, 1) {
		return fmt.Errorf("scenario: buffer of %v bandwidth-delay products (want finite and >= 0)", s.BufferBDP)
	}
	if s.ECN && s.Buffering == NoDrop {
		return fmt.Errorf("scenario: ECN needs a marking gateway queue, not NoDrop")
	}
	if s.ECNThresholdBytes < 0 {
		return fmt.Errorf("scenario: negative ECN threshold %d bytes", s.ECNThresholdBytes)
	}
	if err := s.VarRate.Validate(); err != nil {
		return err
	}
	if len(s.Senders) == 0 {
		return fmt.Errorf("scenario: spec has no senders")
	}
	if want := s.Topology.FlowCount(len(s.Senders)); len(s.Senders) != want {
		return fmt.Errorf("scenario: topology %v routes %d flows, spec has %d senders",
			s.Topology.Kind, want, len(s.Senders))
	}
	switch s.Topology.Kind {
	case KindDumbbell:
		if s.MinRTT <= 0 {
			return fmt.Errorf("scenario: dumbbell with non-positive MinRTT %v", s.MinRTT)
		}
	case KindParkingLot:
		if s.MinRTT/units.Duration(2*s.Topology.Hops) <= 0 {
			return fmt.Errorf("scenario: MinRTT %v too small for a parking lot of %d hops", s.MinRTT, s.Topology.Hops)
		}
	case KindGraph:
		// A graph carries its delays, but BDP-sized buffers need MinRTT.
		if s.Buffering != NoDrop && s.MinRTT <= 0 {
			for i, e := range s.Topology.Graph.Edges {
				if e.Buffer <= 0 {
					return fmt.Errorf("scenario: finite buffering of graph edge %d is sized by MinRTT, which is %v", i, s.MinRTT)
				}
			}
		}
	case KindFatTree:
		if s.MinRTT/12 <= 0 {
			return fmt.Errorf("scenario: MinRTT %v too small for a fat-tree's 12 per-path hops", s.MinRTT)
		}
	}
	for i, snd := range s.Senders {
		if snd.Alg == nil {
			return fmt.Errorf("scenario: sender %d has no congestion controller", i)
		}
		if snd.Workload == nil && (s.MeanOn <= 0 || s.MeanOff <= 0) {
			return fmt.Errorf("scenario: sender %d needs the default on/off workload, but means are %v on / %v off",
				i, s.MeanOn, s.MeanOff)
		}
	}
	return nil
}

// layout is Layout for a spec whose topology and rules are valid,
// written into g's storage (and a parking lot's rates into *rates); an
// explicit graph is returned as it is, leaving g alone.
func (s *Spec) layout(g *topo.Graph, rates *[]units.Rate) (*topo.Graph, error) {
	switch s.Topology.Kind {
	case KindDumbbell:
		g.SetDumbbell(s.linkRate(0), s.MinRTT, len(s.Senders))
		return g, nil
	case KindParkingLot:
		hops := s.Topology.Hops
		rs := slices.Grow((*rates)[:0], hops)[:hops]
		*rates = rs
		for i := range rs {
			rs[i] = s.linkRate(i)
		}
		g.SetParkingLot(rs, s.MinRTT/units.Duration(2*hops), s.Topology.longFlows(), s.Topology.CrossTraffic)
		return g, nil
	case KindGraph:
		return s.Topology.Graph, nil
	}
	return s.fatTreeLayout(g)
}

// fatTreeLayout expands the fat-tree family into g: the switch fabric
// at the spec's rates, per-tier delays derived from MinRTT (an inter-pod
// flow crosses 6 links each way, so each hop contributes MinRTT/12 of
// propagation and the farthest flows see exactly MinRTT), the spec's
// routing policy, and the declared flow placement. The routes come
// from the placement's skeleton, built once and shared; only the edges
// are the spec's, written into g's own.
func (s *Spec) fatTreeLayout(g *topo.Graph) (*topo.Graph, error) {
	hop := s.MinRTT / 12
	sk, err := runPool.skeleton(s.Topology)
	if err != nil {
		return nil, err
	}
	g.Edges = slices.Grow(g.Edges[:0], sk.edges)[:sk.edges]
	for i := range g.Edges {
		g.Edges[i] = topo.Edge{Rate: s.linkRate(i), Prop: hop}
	}
	g.Routes, g.Routing = sk.routes, s.Topology.Routing
	return g, nil
}

// skeleton is the part of a fat-tree layout that depends only on the
// arity and the placement: how many edges the fabric has and every
// flow's route set. Layouts share its routes read-only.
type skeleton struct {
	edges  int
	routes []topo.Route
}

// skeletonKey is what a fat tree's routes depend on.
type skeletonKey struct {
	k         int
	placement Placement
	incastN   int
}

// newSkeleton routes the topology's placement over its fabric. The
// fabric's rates and delays are placeholders: a skeleton keeps only
// the edge count and the routes.
func newSkeleton(t Topology) (skeleton, error) {
	ft, err := topo.FatTree(t.FatTreeK, 1, topo.FatTreeDelays{})
	if err != nil {
		return skeleton{}, err
	}
	switch t.Placement {
	case PlacementPermutation:
		err = ft.AddPermutation()
	case PlacementAllToAll:
		err = ft.AddAllToAll()
	case PlacementIncast:
		err = ft.AddIncast(0, t.IncastN)
	default:
		err = fmt.Errorf("scenario: unknown fat-tree placement %d", t.Placement)
	}
	if err != nil {
		return skeleton{}, err
	}
	return skeleton{edges: len(ft.G.Edges), routes: ft.G.Routes}, nil
}

// Result reports one flow's outcome.
type Result struct {
	Flow        int            // flow index (Spec.Senders order)
	Throughput  units.Rate     // delivered bytes over on-time
	Delay       units.Duration // average one-way per-packet delay
	QueueDelay  units.Duration // average delay in excess of propagation
	MinRTT      units.Duration // the flow's propagation round trip
	FairShare   units.Rate     // equal split of the flow's path bottleneck
	OnTime      units.Duration // simulated time the flow spent "on"
	Retransmits int64          // packets retransmitted
	Timeouts    int64          // RTO fires
	Delta       float64        // the sender's objective weight, echoed
}

// Run executes the scenario and returns one Result per sender, in
// order, or the error Validate reports for the spec.
//
// Run has one path. It takes a world from the pool earlier runs left,
// one of the layout's shape, gateway discipline and routing policy, and
// builds only what that world cannot supply; with no world to take it
// builds one (topo.NewWorld). Either way the world goes back to the
// pool afterwards. A recycled world keeps, from run to run:
//   - the network: the scheduler's arena, the packet free list, every
//     sender's and receiver's rings and the delay lanes' storage;
//   - each link's queue, its capacity changed in place when this spec
//     sizes it otherwise, and the next-hop tables while the routes and
//     policy are unchanged (topo.World.Rebuild), whose paths are then
//     not validated again either;
//   - a built-in family's layout graph, rewritten in its own storage;
//   - each flow's exponential on/off source, reset with a stream split
//     into its own storage, its callbacks bound on its first run;
//   - the fair-share table and the per-run queue and flow lists.
//
// So a run on a world its key last ran allocates only the []Result it
// returns (and whatever the spec's controllers, probe or varying-rate
// process allocate themselves). The fresh-world oracle the differential
// tests compare against is Build followed by Finish, which never
// touches the pool's worlds.
func Run(spec Spec) ([]Result, error) {
	k, err := spec.worldKey()
	if err != nil {
		return nil, err
	}
	w := runPool.take(k)
	lay, err := spec.plan(w)
	if err != nil {
		return nil, err
	}
	if err := spec.host(w, lay); err != nil {
		return nil, err
	}
	if checkBooks && w.books == nil {
		w.keepBooks()
	}
	res := finish(spec, w.Net, &w.rateProcs, w.FairShares(lay))
	if checkBooks {
		w.audit()
	}
	runPool.put(k, w)
	return res, nil
}

// world is one pooled run's state: the network and what a run would
// otherwise build around it every time. Its flow count never changes
// (it is part of the pool key), so its sources are allocated once.
type world struct {
	// World is the network, nil until the world's first run.
	*topo.World

	// lays holds the layouts of the built-in families, one each, so
	// that a fat tree's shared routes never become another family's
	// route storage; rates is a parking lot's per-link rates.
	lays  [KindFatTree + 1]topo.Graph
	rates []units.Rate

	// queues and flows are the per-run inputs of Rebuild.
	queues []queue.Discipline
	flows  []topo.FlowSpec

	// sources are the flows' default on/off sources, made on the
	// first run that needs them.
	sources []source

	// rateProcs are the links' rate processes, made on the first run
	// that varies link rates.
	rateProcs []rateProc

	// books is the packet ledger the books check keeps (nil outside
	// go test).
	books *ledger
}

// source is an exponential on/off source together with the stream it
// draws from.
type source struct {
	workload.OnOff
	rng rng.Stream
}

// host readies w to run the spec's layout: its network rebuilt when it
// has one, a new one otherwise. Where a link of w's network already
// holds the gateway discipline this spec asks for, that queue is kept,
// at the capacity this spec sizes it, for Link.Reinit to reset.
func (s *Spec) host(w *world, lay *topo.Graph) error {
	n := len(lay.Edges)
	w.queues = slices.Grow(w.queues[:0], n)[:n]
	for i, e := range lay.Edges {
		var old queue.Discipline
		if w.World != nil {
			old = w.Net.Links[i].Queue()
		}
		w.queues[i] = s.mkQueue(e, old)
	}
	if w.World != nil {
		if err := w.Rebuild(lay, w.queues, w.flows); err != nil {
			return err
		}
	} else {
		tw, err := topo.NewWorld(lay, w.queues, w.flows)
		if err != nil {
			return err
		}
		w.World = tw
	}
	s.attach(w.Net)
	return nil
}

// worldKey identifies the pool bucket a world can be recycled from: its
// shape (link and flow counts), which topo.World.Rebuild cannot change,
// and what it would otherwise rebuild — the gateway discipline (every
// queue) and the routing policy (every route table). Every part is a
// property of the spec, never of a workload; a run whose world was last
// used by a spec of the same key keeps its queues and, for the same
// routes, its tables.
// Everything else — rates, delays, buffer sizes, algorithms, workloads
// — is re-derived per run.
type worldKey struct {
	links, flows int
	buffering    Buffering
	ecn          bool
	routing      topo.RoutingPolicy
}

// worldKey validates the spec's topology and returns the pool bucket of
// its runs.
func (s *Spec) worldKey() (worldKey, error) {
	t := s.Topology
	if err := t.Validate(); err != nil {
		return worldKey{}, err
	}
	k := worldKey{flows: len(s.Senders), buffering: s.Buffering, ecn: s.ECN}
	switch t.Kind {
	case KindDumbbell:
		k.links = 1
	case KindParkingLot:
		k.links = t.Hops
	case KindGraph:
		k.links, k.routing = len(t.Graph.Edges), t.Graph.Routing
	case KindFatTree:
		sk, err := runPool.skeleton(t)
		if err != nil {
			return worldKey{}, err
		}
		k.links, k.routing = sk.edges, t.Routing
	}
	return k, nil
}

// worldPoolCap bounds how many idle worlds each key retains; beyond
// it, finished worlds are dropped to the garbage collector. Callers run
// at most a handful of scenarios concurrently per key (the trainer's
// evaluation workers), so a small per-key stack captures the reuse
// without hoarding arenas.
const worldPoolCap = 8

// pool is what runs leave for later runs: idle worlds by worldKey, and
// fat-tree skeletons by skeletonKey. Worlds are taken and put back
// whole; skeletons are built once and only read.
type pool struct {
	mu        sync.Mutex
	worlds    map[worldKey][]*world
	skeletons map[skeletonKey]skeleton
}

// runPool is the pool Run, Build and Layout share.
var runPool = pool{
	worlds:    map[worldKey][]*world{},
	skeletons: map[skeletonKey]skeleton{},
}

// take pops an idle world of key k, or returns an empty one, whose
// first run builds its network.
func (p *pool) take(k worldKey) *world {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := p.worlds[k]
	n := len(ws)
	if n == 0 {
		return new(world)
	}
	w := ws[n-1]
	ws[n-1] = nil
	p.worlds[k] = ws[:n-1]
	return w
}

// put returns a finished world to its key's stack, unless the stack
// is full.
func (p *pool) put(k worldKey, w *world) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.worlds[k]) < worldPoolCap {
		p.worlds[k] = append(p.worlds[k], w)
	}
}

// skeleton returns the fat-tree topology's skeleton, building it on
// first use. A placement other than incast ignores IncastN, so it does
// not enter the key.
func (p *pool) skeleton(t Topology) (skeleton, error) {
	k := skeletonKey{k: t.FatTreeK, placement: t.Placement}
	if t.Placement == PlacementIncast {
		k.incastN = t.IncastN
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if sk, ok := p.skeletons[k]; ok {
		return sk, nil
	}
	sk, err := newSkeleton(t)
	if err != nil {
		return skeleton{}, err
	}
	p.skeletons[k] = sk
	return sk, nil
}

// MustRun is Run for specs known to be valid (experiment runners and
// the trainer construct theirs programmatically from validated
// configurations); it panics on a spec error.
func MustRun(spec Spec) []Result {
	res, err := Run(spec)
	if err != nil {
		panic("scenario: " + err.Error())
	}
	return res
}

// Build assembles a fresh network for a spec without running it, so
// callers can attach probes (queue samplers, event counters) before
// Finish. The returned queues are the gateway disciplines in link
// order. A built network never enters the world pool.
func Build(spec Spec) (*netsim.Network, []queue.Discipline, error) {
	if err := spec.Topology.Validate(); err != nil {
		return nil, nil, err
	}
	w := new(world)
	lay, err := spec.plan(w)
	if err != nil {
		return nil, nil, err
	}
	if err := spec.host(w, lay); err != nil {
		return nil, nil, err
	}
	return w.Net, w.queues, nil
}

// plan checks a spec whose topology is valid and compiles, in w's
// storage, what a run needs whichever network hosts it: the layout
// graph and the per-flow algorithm/workload pairs. Run and Build both
// start here.
func (s *Spec) plan(w *world) (*topo.Graph, error) {
	if err := s.rules(); err != nil {
		return nil, err
	}
	lay, err := s.layout(&w.lays[s.Topology.Kind], &w.rates)
	if err != nil {
		return nil, err
	}

	n := len(s.Senders)
	w.flows = slices.Grow(w.flows[:0], n)[:n]
	for i, snd := range s.Senders {
		wl := snd.Workload
		if wl == nil {
			if w.sources == nil {
				w.sources = make([]source, n)
			}
			src := &w.sources[i]
			src.rng = *s.Seed.SplitN("workload", i)
			src.MeanOn, src.MeanOff, src.Rng = s.MeanOn, s.MeanOff, &src.rng
			wl = &src.OnOff
		}
		w.flows[i] = topo.FlowSpec{Alg: snd.Alg, Workload: wl}
	}
	return lay, nil
}

// attach wires the spec's per-run signal and trace planes into a built
// (or just-recycled) network. Reinit clears both, so they are attached
// per run.
func (s *Spec) attach(nw *netsim.Network) {
	if s.ECN {
		for _, f := range nw.Flows {
			f.Sender.SetECN(true)
		}
	}
	if s.Trace != nil {
		for i, l := range nw.Links {
			l.SetTrace(i, s.Trace)
		}
		for _, f := range nw.Flows {
			f.Receiver.SetTrace(s.Trace)
		}
	}
}

// mkQueue returns the gateway queue for edge e of the compiled layout:
// old, resized in place, when it is the discipline this spec would
// build, a new one otherwise. Capacity resolves per link: the
// edge's explicit byte override, then the spec-wide BufferBDP.
func (s *Spec) mkQueue(e topo.Edge, old queue.Discipline) queue.Discipline {
	// fifo returns the FIFO of this capacity and mark threshold;
	// Unbounded is "never drops" and "never marks".
	fifo := func(capBytes, markBytes int) queue.Discipline {
		q, ok := old.(*queue.DropTail)
		if !ok {
			q = queue.NewDropTail(capBytes)
		}
		q.SetLimits(capBytes, markBytes)
		return q
	}
	if s.Buffering == NoDrop {
		return fifo(queue.Unbounded, queue.Unbounded)
	}
	// An edge's override is used verbatim (a tiny-buffer study may want
	// one packet). A BDP-sized buffer floors at two packets, lest a small
	// rate*RTT strangle the link, and saturates at Unbounded rather than
	// at what the platform makes of an out-of-range float conversion.
	capBytes := e.Buffer
	if capBytes <= 0 {
		switch b := float64(units.BDPBytes(e.Rate, s.MinRTT)) * s.BufferBDP; {
		case b >= float64(queue.Unbounded):
			capBytes = queue.Unbounded
		case b < 2*1500:
			capBytes = 2 * 1500
		default:
			capBytes = int(b)
		}
	}
	switch s.Buffering {
	case SfqCoDel:
		q, ok := old.(*queue.SFQCoDel)
		if !ok {
			q = queue.NewSFQCoDel(queue.SFQCoDelBins, capBytes)
		}
		q.SetCapacity(capBytes)
		q.SetECNMarking(s.ECN)
		return q
	case CoDelAQM:
		q, ok := old.(*queue.CoDel)
		if !ok {
			q = queue.NewCoDel(capBytes)
		}
		q.SetCapacity(capBytes)
		q.SetECNMarking(s.ECN)
		return q
	}
	if s.ECN {
		thresh := s.ECNThresholdBytes
		if thresh <= 0 || thresh > capBytes {
			thresh = max(capBytes/2, 1)
		}
		return fifo(capBytes, thresh)
	}
	return fifo(capBytes, queue.Unbounded)
}

// Finish runs a built network for the spec's duration and collects
// results. The spec must be the one the network was built from (Build
// has already validated it, so layout failures here are programmer
// errors and panic).
func Finish(spec Spec, nw *netsim.Network) []Result {
	lay, err := spec.Layout()
	if err != nil {
		panic("scenario: Finish on invalid spec: " + err.Error())
	}
	return finish(spec, nw, new([]rateProc), lay.FairShares())
}

// finish executes a built network and reports each flow's result, with
// shares the fair-share table of its layout. procs holds the network's
// link-rate processes, made by the first run that needs them.
func finish(spec Spec, nw *netsim.Network, procs *[]rateProc, shares []units.Rate) []Result {
	spec.armVarRate(nw, procs)
	if spec.Probe != nil {
		interval := spec.ProbeInterval
		if interval <= 0 {
			interval = 100 * units.Millisecond
		}
		nw.Sample(interval, spec.Probe)
	}
	sts := nw.Run(spec.Duration)
	out := make([]Result, len(sts))
	for i, st := range sts {
		out[i] = Result{
			Flow:        i,
			Throughput:  st.Throughput(),
			Delay:       st.AvgDelay(),
			QueueDelay:  st.AvgQueueingDelay(),
			MinRTT:      st.MinRTT,
			FairShare:   shares[i],
			OnTime:      st.OnTime,
			Retransmits: st.Retransmits,
			Timeouts:    st.Timeouts,
			Delta:       spec.Senders[i].Delta,
		}
	}
	return out
}
