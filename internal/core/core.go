// Package core implements the paper's experiments: it trains the Tao
// protocols each experiment calls for (via internal/remy), evaluates
// them alongside the human-designed baselines and the omniscient
// reference on the paper's testing scenarios, and renders the
// tables/series behind every figure (Experiments is the index;
// docs/EXPERIMENTS.md says what each should show).
package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/cc/vegas"
	"learnability/internal/omniscient"
	"learnability/internal/remy"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/stats"
	"learnability/internal/units"
)

// Effort scales how much computation an experiment spends. The paper
// spends a CPU-year per protocol; these budgets trade fidelity for
// wall-clock time while preserving the comparisons' shapes.
type Effort struct {
	// TrainBudget bounds each Tao's training search.
	TrainBudget remy.Budget
	// TrainReplicas is the number of scenario draws per candidate
	// evaluation during training.
	TrainReplicas int
	// TrainDuration is the simulated time per training run.
	TrainDuration units.Duration
	// TestReplicas is the number of independent runs per testing
	// point.
	TestReplicas int
	// TestDuration is the simulated time per testing run.
	TestDuration units.Duration
	// SweepPoints is the number of points per swept axis.
	SweepPoints int
	// Seed makes the whole experiment deterministic.
	Seed uint64
}

// DefaultEffort runs every experiment at a fidelity suitable for a
// workstation (minutes for the full suite).
func DefaultEffort() Effort {
	return Effort{
		TrainBudget:   remy.Budget{Generations: 2, OptPasses: 2, MovesPerWhisker: 6},
		TrainReplicas: 4,
		TrainDuration: 12 * units.Second,
		TestReplicas:  8,
		TestDuration:  30 * units.Second,
		SweepPoints:   9,
		Seed:          1,
	}
}

// QuickEffort is for tests and smoke runs (tens of seconds).
func QuickEffort() Effort {
	return Effort{
		TrainBudget:   remy.Budget{Generations: 1, OptPasses: 1, MovesPerWhisker: 3},
		TrainReplicas: 2,
		TrainDuration: 8 * units.Second,
		TestReplicas:  3,
		TestDuration:  12 * units.Second,
		SweepPoints:   5,
		Seed:          1,
	}
}

// Protocol is an evaluable endpoint algorithm paired with the gateway
// discipline it is tested over (Cubic-over-sfqCoDel is Cubic at the
// endpoints plus sfqCoDel at the gateway).
type Protocol struct {
	Name string // display name for tables
	// New returns a fresh per-connection controller.
	New func() cc.Algorithm
	// Gateway overrides the scenario's buffering when not nil (used
	// for Cubic-over-sfqCoDel).
	Gateway *scenario.Buffering
}

// Baselines.
func cubicProtocol() Protocol {
	return Protocol{Name: "Cubic", New: func() cc.Algorithm { return cubic.New() }}
}

func cubicSfqCoDelProtocol() Protocol {
	g := scenario.SfqCoDel
	return Protocol{
		Name:    "Cubic/sfqCoDel",
		New:     func() cc.Algorithm { return cubic.New() },
		Gateway: &g,
	}
}

func newRenoProtocol() Protocol {
	return Protocol{Name: "NewReno", New: func() cc.Algorithm { return newreno.New() }}
}

func vegasProtocol() Protocol {
	return Protocol{Name: "Vegas", New: func() cc.Algorithm { return vegas.New() }}
}

// taoProtocol wraps a trained tree (optionally with a signal mask).
func taoProtocol(name string, tree *remycc.Tree, mask remycc.SignalMask) Protocol {
	return Protocol{
		Name: name,
		New:  func() cc.Algorithm { return remycc.NewMasked(tree, mask) },
	}
}

// TaoSpec names a Tao protocol and the training configuration that
// produces it. Trees are trained once per process and cached.
type TaoSpec struct {
	Name string      // display name, and with the config's content the cache key
	Cfg  remy.Config // training distribution and objective
	Seed uint64      // training seed
}

// dumbbellTraining returns the training model the paper's experiments
// share — a drop-tail dumbbell, senders switching on and off with 1 s
// means, δ = 1, every congestion signal observable — over the given
// link-speed, minimum-RTT and sender-count ranges and buffer depth.
// An experiment whose model departs from it (Tables 5–7) overrides
// those fields on the result.
func dumbbellTraining(speedMin, speedMax units.Rate, rttMin, rttMax units.Duration,
	sendersMin, sendersMax int, bufferBDP float64) remy.Config {
	return remy.Config{
		Topology:     scenario.Dumbbell,
		LinkSpeedMin: speedMin,
		LinkSpeedMax: speedMax,
		MinRTTMin:    rttMin,
		MinRTTMax:    rttMax,
		SendersMin:   sendersMin,
		SendersMax:   sendersMax,
		MeanOn:       units.Second,
		MeanOff:      units.Second,
		Buffering:    scenario.FiniteDropTail,
		BufferBDP:    bufferBDP,
		Delta:        1,
		Mask:         remycc.AllSignals(),
	}
}

var (
	taoCacheMu sync.Mutex
	taoCache   = map[string]*remycc.Tree{}
)

// Train returns the trained tree for the spec, training it on first
// use. The cache key includes the name, the config's content (SHA-256
// of its JSON, the form remy hashes) and everything of the effort that
// training reads, so two specs of one name but different configs, and
// different fidelities and seeds, do not collide.
func (s TaoSpec) Train(e Effort, log func(string, ...any)) *remycc.Tree {
	content, err := json.Marshal(s.Cfg)
	if err != nil {
		panic(fmt.Sprintf("core: training config of %s not serializable: %v", s.Name, err))
	}
	key := fmt.Sprintf("%s/%x/%d/%d/%+v/%d/%v", s.Name, sha256.Sum256(content), s.Seed, e.Seed, e.TrainBudget, e.TrainReplicas, e.TrainDuration)
	taoCacheMu.Lock()
	if t, ok := taoCache[key]; ok {
		taoCacheMu.Unlock()
		return t
	}
	taoCacheMu.Unlock()

	cfg := s.Cfg
	cfg.Replicas = e.TrainReplicas
	cfg.Duration = e.TrainDuration
	tr := &remy.Trainer{Cfg: cfg, Seed: s.Seed ^ e.Seed, Log: log}
	tree := tr.Train(e.TrainBudget)

	taoCacheMu.Lock()
	taoCache[key] = tree
	taoCacheMu.Unlock()
	return tree
}

// protocol trains the spec and wraps the tree as an evaluable protocol
// under the spec's name, observing the signals it was trained on.
func (s TaoSpec) protocol(e Effort, log func(string, ...any)) Protocol {
	return taoProtocol(s.Name, s.Train(e, log), s.Cfg.Mask)
}

// ResetTaoCache clears trained protocols (tests use it to force
// retraining).
func ResetTaoCache() {
	taoCacheMu.Lock()
	taoCache = map[string]*remycc.Tree{}
	taoCacheMu.Unlock()
}

// testDumbbell returns the testing network most experiments share: a
// drop-tail dumbbell with 5 BDP of buffer and 1 s on/off senders.
func testDumbbell(e Effort, speed units.Rate, minRTT units.Duration) scenario.Spec {
	return scenario.Spec{
		Topology:  scenario.Dumbbell,
		LinkSpeed: speed,
		MinRTT:    minRTT,
		Buffering: scenario.FiniteDropTail,
		BufferBDP: 5,
		MeanOn:    units.Second,
		MeanOff:   units.Second,
		Duration:  e.TestDuration,
	}
}

// flow is one sender of a testing scenario: a factory for its
// controller and its objective weight.
type flow struct {
	alg   func() cc.Algorithm
	delta float64
}

// mix is one testing network of an experiment about senders that
// differ: who sends, and which flows each result row reports together.
type mix struct {
	label  string
	flows  []flow
	groups []flowGroup
}

// flowGroup names the flows one result row reports together.
type flowGroup struct {
	name  string
	flows []int
}

// replicas holds the per-flow results of each independent run of one
// testing scenario.
type replicas [][]scenario.Result

// runReplicas runs e.TestReplicas independent copies of the template,
// replica i seeded from root's "replica" child i, each with fresh
// controllers. It is the one place an experiment's testing scenarios
// execute, so every figure evaluates its protocols the same way.
func runReplicas(e Effort, tmpl scenario.Spec, flows []flow, root *rng.Stream) replicas {
	runs := make(replicas, e.TestReplicas)
	for rep := range runs {
		spec := tmpl
		spec.Seed = root.SplitN("replica", rep)
		spec.Senders = make([]scenario.Sender, len(flows))
		for i, f := range flows {
			spec.Senders[i] = scenario.Sender{Alg: f.alg(), Delta: f.delta}
		}
		runs[rep] = scenario.MustRun(spec)
	}
	return runs
}

// on returns, replica by replica, the results of the named flows (of
// every flow when none is named) that were ever on; a flow that never
// turned on has no throughput or delay to report.
func (runs replicas) on(flows ...int) []scenario.Result {
	var out []scenario.Result
	for _, results := range runs {
		for fi, r := range results {
			if r.OnTime > 0 && (len(flows) == 0 || slices.Contains(flows, fi)) {
				out = append(out, r)
			}
		}
	}
	return out
}

// evalPoint runs nSenders copies of protocol p on the scenario
// template, overriding buffering if the protocol demands it, seeding
// the replicas from root's child named after the protocol.
func evalPoint(e Effort, p Protocol, tmpl scenario.Spec, nSenders int, root *rng.Stream) replicas {
	if p.Gateway != nil {
		tmpl.Buffering = *p.Gateway
	}
	flows := make([]flow, nSenders)
	for i := range flows {
		flows[i] = flow{p.New, 1}
	}
	return runReplicas(e, tmpl, flows, root.Split(p.Name))
}

// testRoot is the seed root of the testing point named label.
func testRoot(e Effort, label string) *rng.Stream {
	return rng.New(e.Seed).Split("test").Split(label)
}

// normalizedObjectives scores each protocol at one dumbbell testing
// point: nSenders homogeneous senders on the template, the normalized
// objective taken against the omniscient allocation for that network.
func normalizedObjectives(e Effort, protocols []Protocol, tmpl scenario.Spec, nSenders int, label string) []float64 {
	sys := omniscient.Dumbbell(tmpl.LinkSpeed, tmpl.MinRTT, nSenders, 0.5)
	omniTpt, omniDelay := sys.ExpectedThroughput(0), sys.Delay(0)
	objs := make([]float64, len(protocols))
	for pi, p := range protocols {
		results := evalPoint(e, p, tmpl, nSenders, testRoot(e, label)).on()
		objs[pi] = meanNormalizedObjective(results, omniTpt, omniDelay, 1)
	}
	return objs
}

// meanNormalizedObjective averages the normalized objective (§3.2,
// Figures 2-4 form) over results, normalizing throughput by omniTpt
// and delay by omniDelay so the omniscient protocol scores 0.
func meanNormalizedObjective(results []scenario.Result, omniTpt units.Rate, omniDelay units.Duration, delta float64) float64 {
	var vals []float64
	for _, r := range results {
		vals = append(vals, stats.NormalizedObjective(r.Throughput, omniTpt, r.Delay, omniDelay, delta))
	}
	return stats.Mean(vals)
}

// summarize converts results into the paper's ellipse summary
// (throughput in bps, queueing delay in seconds).
func summarize(results []scenario.Result) stats.Summary {
	var tpt, qd []float64
	for _, r := range results {
		tpt = append(tpt, float64(r.Throughput))
		qd = append(qd, r.QueueDelay.Seconds())
	}
	return stats.Summarize(tpt, qd)
}

// meanTptAndQueue averages throughput (Mbps) and queueing delay (ms)
// over results; ok is false when there are none.
func meanTptAndQueue(results []scenario.Result) (tptMbps, queueMs float64, ok bool) {
	var tpt, qd []float64
	for _, r := range results {
		tpt = append(tpt, float64(r.Throughput)/1e6)
		qd = append(qd, r.QueueDelay.Seconds()*1e3)
	}
	return stats.Mean(tpt), stats.Mean(qd), len(results) > 0
}

// logspace returns n points log-spaced over [lo, hi] inclusive.
func logspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		frac := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(hi/lo, frac)
	}
	return out
}

// linspace returns n points evenly spaced over [lo, hi] inclusive.
func linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// renderTable renders rows of columns as an aligned text table.
func renderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
