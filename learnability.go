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
// Quick start:
//
//	tr := &learnability.Trainer{Cfg: learnability.TrainConfig{
//		LinkSpeedMin: 10 * learnability.Mbps,
//		LinkSpeedMax: 100 * learnability.Mbps,
//		MinRTTMin:    150 * learnability.Millisecond,
//		MinRTTMax:    150 * learnability.Millisecond,
//		SendersMin:   2, SendersMax: 2,
//		MeanOn:       learnability.Second,
//		MeanOff:      learnability.Second,
//		BufferBDP:    5,
//		Delta:        1,
//	}}
//	tao := tr.Train(learnability.DefaultTrainBudget())
//	res := learnability.RunCalibration(learnability.QuickEffort(), nil)
//	fmt.Println(res.Table())
package learnability

import (
	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/cc/vegas"
	"learnability/internal/core"
	"learnability/internal/remy"
	"learnability/internal/remy/shardnet"
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
)

// NewRemyCC returns a controller executing a trained Tao protocol.
func NewRemyCC(tree *Tree) Algorithm { return remycc.New(tree) }

// NewRemyCCMasked returns a Tao controller observing only the signals
// in mask.
func NewRemyCCMasked(tree *Tree, mask SignalMask) Algorithm {
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

// TaoSignals reports the congestion signals currently tracked by a Tao
// controller created with NewRemyCC/NewRemyCCMasked, in the paper's
// order (rec_ewma, slow_rec_ewma, send_ewma in seconds; rtt_ratio
// dimensionless) followed by the ecn_frac extension (fraction of
// recent ACKs echoing a CE mark). ok is false if alg is not a Tao.
func TaoSignals(alg Algorithm) (signals [remycc.NumSignals]float64, ok bool) {
	r, ok := alg.(*remycc.RemyCC)
	if !ok {
		return signals, false
	}
	return r.LastVector(), true
}

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

// Distributed training (the shardnet TCP fabric).
type (
	// ShardServer serves shard jobs over TCP to remote coordinators
	// (the worker half of Trainer.Remotes); cmd/remyshardd hosts one
	// per machine, and benchmark/ hosts them in-process on loopback.
	ShardServer = shardnet.Server
	// ShardCache is a worker-side content-addressed result cache.
	ShardCache = shardnet.Cache
)

// NewShardServer returns a TCP shard worker wired to the real job
// evaluator, with a slot-level result cache of maxCacheEntries entries
// (0 = the default size, negative = no cache). Serve it on a
// net.Listener and point Trainer.Remotes at its address.
func NewShardServer(maxCacheEntries int) *ShardServer {
	var cache *shardnet.Cache
	if maxCacheEntries >= 0 {
		cache = shardnet.NewCache(maxCacheEntries)
	}
	return &shardnet.Server{Eval: remy.CachedShardEval(cache)}
}

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

	// Sweep is the dataset of Figures 2, 3 and 4: normalized objective
	// against one swept network parameter, per protocol and panel.
	Sweep = core.Sweep

	CalibrationResult = core.CalibrationResult
	StructureResult   = core.StructureResult
	TCPAwareResult    = core.TCPAwareResult
	TimeDomainResult  = core.TimeDomainResult
	DiversityResult   = core.DiversityResult
	KnockoutResult    = core.KnockoutResult
	VegasResult       = core.VegasResult
	UnifiedResult     = core.UnifiedResult
)

// DefaultEffort is workstation-scale fidelity.
func DefaultEffort() Effort { return core.DefaultEffort() }

// QuickEffort is smoke-test fidelity.
func QuickEffort() Effort { return core.QuickEffort() }

// The experiment runners. log may be nil.
var (
	RunCalibration  = core.RunCalibration
	RunLinkSpeed    = core.RunLinkSpeed
	RunMultiplexing = core.RunMultiplexing
	RunPropDelay    = core.RunPropDelay
	RunStructure    = core.RunStructure
	RunTCPAware     = core.RunTCPAware
	RunTimeDomain   = core.RunTimeDomain
	RunDiversity    = core.RunDiversity
	RunKnockout     = core.RunKnockout
	RunVegasSqueeze = core.RunVegasSqueeze
	RunUnified      = core.RunUnified
)
