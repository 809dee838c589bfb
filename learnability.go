// Package learnability reproduces "An Experimental Study of the
// Learnability of Congestion Control" (Sivaraman, Winstein, Thaker,
// Balakrishnan; SIGCOMM 2014) in pure Go: a packet-level network
// simulator, the Remy protocol-design tool and the Tao protocols it
// synthesizes, the TCP baselines (NewReno, Cubic, Vegas) and the
// sfqCoDel gateway discipline, the omniscient proportionally fair
// reference, and runners for every experiment in the paper's
// evaluation.
//
// This file is the public facade: it re-exports the pieces a user
// needs to train protocols, run scenarios, and regenerate the paper's
// figures. The implementation lives under internal/ (see
// docs/ARCHITECTURE.md, "Package map").
//
// The package example trains a small Tao and races it against Cubic
// and NewReno (go test -run '^Example$' -v . runs it); the other
// examples drive the parking-lot and fat-tree topologies and a Tao's
// per-ACK trace. Experiments lists every table and figure of the
// paper; cmd/learnability runs them.
package learnability

import (
	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/cc/vegas"
	"learnability/internal/core"
	"learnability/internal/remy"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// Physical quantities.
type (
	// Time is a point in simulated time (nanoseconds).
	Time = units.Time
	// Duration is a span of simulated time (nanoseconds).
	Duration = units.Duration
	// Rate is a data rate in bits per second.
	Rate = units.Rate
)

// Common units.
const (
	Millisecond = units.Millisecond
	Second      = units.Second
	Kbps        = units.Kbps
	Mbps        = units.Mbps
	Gbps        = units.Gbps
)

// Congestion control.
type (
	// Algorithm is a per-connection congestion controller (see
	// internal/cc for the contract).
	Algorithm = cc.Algorithm
	// Feedback carries per-ACK congestion signals.
	Feedback = cc.Feedback
	// Tree is a trained Tao protocol's whisker tree (JSON-
	// serializable).
	Tree = remycc.Tree
	// Action is one whisker's congestion response.
	Action = remycc.Action
	// SignalMask selects observable congestion signals (§3.4).
	SignalMask = remycc.SignalMask
	// Tao is a controller executing a trained Tao protocol. Its
	// SetTrace method installs a per-ACK observer that must not change
	// any state, so a traced run equals an untraced one.
	Tao = remycc.RemyCC
	// TaoTrace is one per-ACK observation of a Tao: the whisker that
	// fired, the window and pacing it set, and the signal vector it
	// matched (rec_ewma, slow_rec_ewma, send_ewma in seconds,
	// rtt_ratio, then the ecn_frac extension).
	TaoTrace = remycc.TraceEntry
)

// NewRemyCC returns a controller executing a trained Tao protocol.
func NewRemyCC(tree *Tree) *Tao { return remycc.New(tree) }

// NewRemyCCMasked returns a Tao controller observing only the signals
// in mask.
func NewRemyCCMasked(tree *Tree, mask SignalMask) *Tao {
	return remycc.NewMasked(tree, mask)
}

// NewCubic returns a TCP Cubic controller.
func NewCubic() Algorithm { return cubic.New() }

// NewNewReno returns a TCP NewReno controller.
func NewNewReno() Algorithm { return newreno.New() }

// NewVegas returns a TCP Vegas controller.
func NewVegas() Algorithm { return vegas.New() }

// AllSignals enables every congestion signal.
func AllSignals() SignalMask { return remycc.AllSignals() }

// NewWhiskerTree returns the untrained single-whisker tree.
func NewWhiskerTree() *Tree { return remycc.NewTree() }

// Training (the Remy protocol-design tool).
type (
	// TrainConfig describes a training-scenario distribution (§3.1).
	TrainConfig = remy.Config
	// Trainer runs the Remy search.
	Trainer = remy.Trainer
	// TrainBudget bounds the search effort.
	TrainBudget = remy.Budget
)

// DefaultTrainBudget is a laptop-scale training budget.
func DefaultTrainBudget() TrainBudget { return remy.DefaultBudget() }

// Scenario execution.
type (
	// Spec is one concrete network configuration (§3.1).
	Spec = scenario.Spec
	// SpecSender describes one endpoint in a Spec.
	SpecSender = scenario.Sender
	// Result is one flow's outcome.
	Result = scenario.Result
	// Topology is a declarative network-shape description.
	Topology = scenario.Topology
	// Buffering selects the gateway queue.
	Buffering = scenario.Buffering
	// TopoGraph is an explicit link/path topology graph: links are
	// edges, every flow carries a multi-hop path.
	TopoGraph = topo.Graph
	// TopoEdge is one unidirectional link of a TopoGraph.
	TopoEdge = topo.Edge
	// TopoRoute is one flow's path set through a TopoGraph.
	TopoRoute = topo.Route
	// RoutingPolicy spreads a flow's packets over its equal-cost
	// alternative paths (ECMP, Spray, Adaptive).
	RoutingPolicy = topo.RoutingPolicy
	// FatTreePlacement selects the fat-tree flow placement.
	FatTreePlacement = scenario.Placement
)

// Multipath routing policies.
const (
	// ECMP hashes each flow onto one path (path-stable).
	ECMP = topo.ECMP
	// Spray round-robins each flow's paths per packet.
	Spray = topo.Spray
	// Adaptive picks the least-queued next hop per packet.
	Adaptive = topo.Adaptive
)

// Fat-tree flow placements.
const (
	// PlacementPermutation gives every host one pod-crossing flow.
	PlacementPermutation = scenario.PlacementPermutation
	// PlacementAllToAll places one flow per ordered host pair.
	PlacementAllToAll = scenario.PlacementAllToAll
	// PlacementIncast converges IncastN flows on host 0.
	PlacementIncast = scenario.PlacementIncast
)

// The paper's two topologies.
var (
	// DumbbellTopology is a single shared bottleneck.
	DumbbellTopology = scenario.Dumbbell
	// ParkingLotTopology is the paper's Figure 5 two-bottleneck shape
	// (three senders; flow 0 crosses both links).
	ParkingLotTopology = scenario.ParkingLot
)

// Gateway queues.
const (
	FiniteDropTail = scenario.FiniteDropTail
	NoDrop         = scenario.NoDrop
	SfqCoDel       = scenario.SfqCoDel
	CoDelAQM       = scenario.CoDelAQM
)

// VarRate describes bottleneck-rate modulation for a Spec (Spec.VarRate).
type VarRate = scenario.VarRate

// Variable-rate link families.
const (
	VarRateNone   = scenario.VarRateNone
	VarRateOnOff  = scenario.VarRateOnOff
	VarRateMarkov = scenario.VarRateMarkov
)

// ParkingLotN describes an N-hop parking lot: hops bottleneck links in
// series, one flow crossing all of them and — when cross is set — one
// single-hop cross-traffic flow per link.
func ParkingLotN(hops int, cross bool) Topology { return scenario.ParkingLotN(hops, cross) }

// GraphTopology wraps an explicit link/path graph description.
func GraphTopology(g *TopoGraph) Topology { return scenario.GraphTopology(g) }

// FatTreeTopology describes a k-ary fat-tree (k³/4 hosts) with a
// pod-crossing permutation placement under the given routing policy.
func FatTreeTopology(k int, routing RoutingPolicy) Topology {
	return scenario.FatTreeTopology(k, routing)
}

// FatTreeIncast describes a k-ary fat-tree with n flows converging on
// host 0 under the given routing policy.
func FatTreeIncast(k, n int, routing RoutingPolicy) Topology {
	return scenario.FatTreeIncast(k, n, routing)
}

// RunScenario executes a scenario and returns per-flow results. It
// returns an error for an invalid spec (bad topology, sender-count
// mismatch, missing seed, ...).
func RunScenario(spec Spec) ([]Result, error) { return scenario.Run(spec) }

// MustRunScenario is RunScenario for specs known to be valid; it
// panics on a spec error.
func MustRunScenario(spec Spec) []Result { return scenario.MustRun(spec) }

// NewSeed returns a deterministic random stream for Spec.Seed.
func NewSeed(seed uint64) *rng.Stream { return rng.New(seed) }

// Experiments (one per table/figure; docs/EXPERIMENTS.md says what
// each should show).
type (
	// Effort scales experiment fidelity.
	Effort = core.Effort
	// Experiment is one runnable study of the paper: its
	// cmd/learnability id, its title and its runner.
	Experiment = core.Experiment
	// ExperimentResult is what an experiment produces: a table, its
	// headline quantities and a CSV dump of the dataset.
	ExperimentResult = core.Result
	// Headline is one summary quantity of an experiment.
	Headline = core.Headline
)

// Experiments lists every study in the order the paper presents them.
var Experiments = core.Experiments

// DefaultEffort is workstation-scale fidelity.
func DefaultEffort() Effort { return core.DefaultEffort() }

// QuickEffort is smoke-test fidelity.
func QuickEffort() Effort { return core.QuickEffort() }
