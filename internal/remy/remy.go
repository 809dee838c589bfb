// Package remy implements the protocol-design tool the paper uses to
// produce Tao protocols (§3.3): a search over piecewise-constant
// mappings from congestion-signal memory to actions. Starting from a
// single whisker with a default action, the trainer repeatedly
// simulates the protocol on draws from the training-scenario
// distribution, hill-climbs the most-used whiskers' actions, and splits
// the most-used whisker so the mapping can discriminate finer memory
// regions — Remy's evaluate/optimize/split loop, with candidate
// evaluations fanned out across goroutines, processes or machines.
//
// The paper spends a CPU-year per protocol; this trainer exposes the
// same loop under an explicit budget (docs/EXPERIMENTS.md, "Training
// and evaluating protocols by hand", shows budgets that fit a laptop).
package remy

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/stats"
	"learnability/internal/telemetry"
	"learnability/internal/units"
)

// Config describes the training-scenario distribution (§3.1) and the
// designer's objective (§3.2).
type Config struct {
	// Topology of every training draw: the dumbbell, the N-hop
	// parking-lot family (per-link speeds are drawn independently from
	// the LinkSpeed range), or an explicit graph. The description is
	// JSON-serializable and ships to shard workers inside the job
	// config, so distributed training sees identical topology draws.
	Topology scenario.Topology

	// LinkSpeedMin..Max: bottleneck rate, drawn log-uniformly (the
	// paper samples link speeds "logarithmically from the range").
	LinkSpeedMin, LinkSpeedMax units.Rate

	// MinRTTMin..Max: round-trip propagation delay, drawn uniformly.
	MinRTTMin, MinRTTMax units.Duration

	// SendersMin..Max: number of trainee senders, drawn uniformly.
	SendersMin, SendersMax int

	// AIMDProb is the probability that one trainee sender is replaced
	// by an AIMD (NewReno-like) sender, modeling incumbent TCP
	// cross-traffic (§4.5's TCP-aware training).
	AIMDProb float64

	// MeanOn/MeanOff are the workload means.
	MeanOn, MeanOff units.Duration

	// Buffering and BufferBDP configure the gateway queues.
	Buffering scenario.Buffering
	// BufferBDP is the gateway buffer depth in bandwidth-delay
	// products.
	BufferBDP float64

	// ECN enables the ECN signal plane in every training scenario:
	// senders stamp ECT, gateways mark instead of drop, and the CE
	// echo feeds the trainee's ecn_frac signal (knock it out via Mask
	// to rerun the paper's learnability methodology over ECN).
	ECN bool
	// ECNThresholdBytes is the FiniteDropTail marking threshold under
	// ECN; 0 sizes it at half the queue capacity. See
	// scenario.Spec.ECNThresholdBytes.
	ECNThresholdBytes int

	// VarRate modulates every link's rate as a stochastic process in
	// every training scenario (see scenario.VarRate). Zero value keeps
	// rates constant.
	VarRate scenario.VarRate

	// Delta is the trainee's objective weight.
	Delta float64

	// Mask restricts the observable congestion signals (§3.4 knockout
	// study). Zero value means all signals; use remycc.AllSignals()
	// explicitly for clarity.
	Mask remycc.SignalMask

	// Other optionally adds senders running a fixed second protocol
	// (co-optimization, §4.6). OtherCountMin..Max senders run Other
	// with objective weight OtherDelta; their objective is added to
	// the trainee's when IncludeOtherInObjective is set.
	Other *remycc.Tree
	// OtherDelta is the partner protocol's objective weight.
	OtherDelta float64
	// OtherCountMin is the minimum number of partner senders drawn.
	OtherCountMin int
	// OtherCountMax is the maximum number of partner senders drawn.
	OtherCountMax int
	// IncludeOtherInObjective adds the partner senders' objective to
	// the trainee's.
	IncludeOtherInObjective bool

	// Duration is the simulated time per training run.
	Duration units.Duration

	// Replicas is the number of independent scenario draws averaged
	// per candidate evaluation.
	Replicas int
}

func (c *Config) normalize() Config {
	out := *c
	if out.Mask == (remycc.SignalMask{}) {
		out.Mask = remycc.AllSignals()
	}
	if out.Replicas <= 0 {
		out.Replicas = 4
	}
	if out.Duration <= 0 {
		out.Duration = 16 * units.Second
	}
	// A topology other than the dumbbell fixes the flow count (sample
	// ignores the range), so that count is the normalized range: a
	// normalized config, such as the one a shard job ships, validates
	// as the one it came from.
	if n := out.Topology.FlowCount(0); out.Topology.Kind != scenario.KindDumbbell && n > 0 {
		out.SendersMin, out.SendersMax = n, n
	}
	if out.SendersMin <= 0 {
		out.SendersMin = 1
	}
	if out.SendersMax < out.SendersMin {
		out.SendersMax = out.SendersMin
	}
	if out.LinkSpeedMax < out.LinkSpeedMin {
		out.LinkSpeedMax = out.LinkSpeedMin
	}
	if out.MinRTTMax < out.MinRTTMin {
		out.MinRTTMax = out.MinRTTMin
	}
	return out
}

// draw is one concrete training scenario.
type draw struct {
	linkSpeed  units.Rate
	linkSpeeds []units.Rate // per-link rates for multi-link topologies
	minRTT     units.Duration
	nTrainee   int
	nAIMD      int
	nOther     int
	seed       *rng.Stream
}

// sample draws a concrete scenario from the normalized training
// distribution, whose sender range a topology with a fixed flow count
// has pinned to that count (normalize). The parking-lot family draws
// every additional link's speed log-uniformly from the same range as
// the first; a fat tree runs every link at the drawn speed.
func (c *Config) sample(r *rng.Stream) draw {
	d := draw{
		linkSpeed: units.Rate(r.LogUniform(float64(c.LinkSpeedMin), float64(c.LinkSpeedMax))),
		minRTT: c.MinRTTMin + units.Duration(
			r.Uniform(0, float64(c.MinRTTMax-c.MinRTTMin))),
		nTrainee: r.IntRange(c.SendersMin, c.SendersMax),
	}
	if c.Topology.Kind == scenario.KindParkingLot {
		hops := c.Topology.Hops
		d.linkSpeeds = make([]units.Rate, hops)
		d.linkSpeeds[0] = d.linkSpeed
		for i := 1; i < hops; i++ {
			d.linkSpeeds[i] = units.Rate(r.LogUniform(float64(c.LinkSpeedMin), float64(c.LinkSpeedMax)))
		}
	}
	if c.AIMDProb > 0 && d.nTrainee > 1 && r.Float64() < c.AIMDProb {
		d.nTrainee--
		d.nAIMD = 1
	}
	if c.Other != nil {
		d.nOther = r.IntRange(c.OtherCountMin, c.OtherCountMax)
		if d.nTrainee+d.nOther == 0 {
			d.nTrainee = 1
		}
	}
	d.seed = r.Split("scenario")
	return d
}

// Validate reports whether the configuration can train at all. It
// checks the distribution's own rules (drawable ranges, AIMDProb, the
// partner counts and their topology, sender counts a topology fixes)
// and leaves the scenario's to scenario.Spec.Validate on the corner
// draws: slowest link, shortest RTT, fewest senders; fastest, longest,
// most. Each scenario rule is monotone in one of the three, so every
// draw between corners that build builds. A draw may run at most
// maxSenders senders, trainees and partners together; that is checked
// before a corner's sender list is laid out. cmd/remytrain calls it
// before Train, which treats a bad configuration as a programmer error.
func (c *Config) Validate() error {
	n := c.normalize()
	if err := n.Topology.Validate(); err != nil {
		return err
	}
	// Fixed-flow topologies dictate the sender count; an explicit
	// SendersMin/Max that disagrees would be silently ignored by
	// sample, so reject it instead.
	if n.Topology.Kind != scenario.KindDumbbell {
		want := n.Topology.FlowCount(0)
		for _, got := range []int{c.SendersMin, c.SendersMax} {
			if got != 0 && got != want {
				return fmt.Errorf("remy: topology %v fixes the flow count at %d, but the config asks for %d senders",
					n.Topology.Kind, want, got)
			}
		}
	}
	if n.LinkSpeedMin <= 0 {
		return fmt.Errorf("remy: link speeds are drawn log-uniformly from a positive range, not from %v", n.LinkSpeedMin)
	}
	if !(n.AIMDProb >= 0 && n.AIMDProb <= 1) {
		return fmt.Errorf("remy: AIMD probability %v outside [0,1]", n.AIMDProb)
	}
	fewest, most := n.SendersMin, n.SendersMax
	if most > maxSenders {
		return fmt.Errorf("remy: a draw of up to %d senders (at most %d)", most, maxSenders)
	}
	if n.Other != nil {
		if n.OtherCountMin < 0 || n.OtherCountMax < n.OtherCountMin {
			return fmt.Errorf("remy: partner count range %d..%d (want 0 <= min <= max)", n.OtherCountMin, n.OtherCountMax)
		}
		if n.Topology.Kind != scenario.KindDumbbell && n.OtherCountMax > 0 {
			return fmt.Errorf("remy: partner senders require a dumbbell (topology %v has a fixed flow count)", n.Topology.Kind)
		}
		// Compared as a difference: the sum can overflow.
		if n.OtherCountMax > maxSenders-most {
			return fmt.Errorf("remy: a draw of up to %d trainees and %d partners (at most %d senders)", most, n.OtherCountMax, maxSenders)
		}
		fewest += n.OtherCountMin
		most += n.OtherCountMax
	}
	// Validation reads only that a sender has a controller.
	senders, alg, seed := make([]scenario.Sender, most), newreno.New(), rng.New(0)
	for i := range senders {
		senders[i].Alg = alg
	}
	for _, d := range []draw{
		{linkSpeed: n.LinkSpeedMin, minRTT: n.MinRTTMin, nTrainee: fewest, seed: seed},
		{linkSpeed: n.LinkSpeedMax, minRTT: n.MinRTTMax, nTrainee: most, seed: seed},
	} {
		if err := n.spec(d, senders[:d.nTrainee]).Validate(); err != nil {
			return fmt.Errorf("remy: the draw at %v, %v and %d senders does not run: %w", d.linkSpeed, d.minRTT, d.nTrainee, err)
		}
	}
	return nil
}

// maxSenders bounds the senders of one training draw. It sits far
// above the tens of senders the paper's experiments draw, and keeps
// the sender lists Validate and every run lay out within memory.
const maxSenders = 1 << 16

// generationDraws derives one generation's common scenario draws from
// the training seed. It is the single source of the draw-derivation
// sequence: coordinator and shard workers both reach it through
// drawsFor, so the two can never diverge — a pillar of the guarantee
// that sharded training is bit-identical to in-process training.
func (c *Config) generationDraws(seed uint64, gen int) []draw {
	root := rng.New(seed).SplitN("generation", gen)
	draws := make([]draw, c.Replicas)
	for k := range draws {
		draws[k] = c.sample(root.SplitN("replica", k))
	}
	return draws
}

// spec is the scenario draw d runs, with the given senders.
func (c *Config) spec(d draw, senders []scenario.Sender) scenario.Spec {
	return scenario.Spec{
		Topology:          c.Topology,
		LinkSpeed:         d.linkSpeed,
		LinkSpeeds:        d.linkSpeeds,
		MinRTT:            d.minRTT,
		Buffering:         c.Buffering,
		BufferBDP:         c.BufferBDP,
		ECN:               c.ECN,
		ECNThresholdBytes: c.ECNThresholdBytes,
		VarRate:           c.VarRate,
		MeanOn:            c.MeanOn,
		MeanOff:           c.MeanOff,
		Senders:           senders,
		Duration:          c.Duration,
		Seed:              d.seed,
	}
}

// evalOne runs the candidate tree on one scenario draw, accumulating
// whisker usage into the caller-provided buffer (reset here) — or, with
// usage nil, only whisker firing counts into sc.usage — and returns the
// draw's objective. The run's sender list and its Tao controllers are
// sc's, reinitialized for the run, so on a scratch that has run a draw
// as large the only allocation is the run's results.
func (c *Config) evalOne(tree *remycc.Tree, d draw, usage *remycc.UsageStats, sc *evalScratch) float64 {
	if usage != nil {
		usage.Reset(tree.Len())
	} else {
		usage = &sc.usage
		usage.ResetCounts(tree.Len())
	}
	senders := sc.senders[:0]
	for i := 0; i < d.nTrainee; i++ {
		alg := sc.tao(i)
		alg.Reinit(tree, c.Mask)
		alg.RecordUsage(usage)
		senders = append(senders, scenario.Sender{Alg: alg, Delta: c.Delta})
	}
	for i := 0; i < d.nOther; i++ {
		alg := sc.tao(d.nTrainee + i)
		alg.Reinit(c.Other, remycc.AllSignals())
		senders = append(senders, scenario.Sender{Alg: alg, Delta: c.OtherDelta})
	}
	for i := 0; i < d.nAIMD; i++ {
		senders = append(senders, scenario.Sender{Alg: newreno.New(), Delta: c.Delta})
	}
	sc.senders = senders

	// Trainees come first, then the Tao partners.
	results := scenario.MustRun(c.spec(d, senders))
	scored := results[:d.nTrainee]
	if c.IncludeOtherInObjective {
		scored = results[:d.nTrainee+d.nOther]
	}
	score, n := 0.0, 0
	for _, res := range scored {
		if res.OnTime == 0 {
			continue
		}
		score += stats.Objective(res.Throughput, res.Delay, res.Delta)
		n++
	}
	if n == 0 {
		return 0
	}
	return score / float64(n)
}

// evalScratch is what one evaluating goroutine keeps from run to run:
// the firing counts of score-only slots, a run's sender list and
// the Tao controllers (trainees, then partners), reinitialized per run.
type evalScratch struct {
	usage   remycc.UsageStats
	senders []scenario.Sender
	taos    []*remycc.RemyCC
}

// tao returns the scratch's i-th Tao controller, adding one when the
// scratch has fewer; the caller reinitializes it.
func (sc *evalScratch) tao(i int) *remycc.RemyCC {
	for len(sc.taos) <= i {
		sc.taos = append(sc.taos, new(remycc.RemyCC))
	}
	return sc.taos[i]
}

// Trainer runs the Remy search. Every candidate evaluation goes
// through the one slot evaluator (evalslots.go): in process over the
// whole batch, or — with Remotes set — sliced into self-contained jobs
// that remyshardd workers decode back into slot ranges (see
// sharding.go). The result is bit-identical either way.
type Trainer struct {
	// Cfg is the training-scenario distribution and objective.
	Cfg Config
	// Workers bounds concurrent simulations (default: NumCPU).
	Workers int
	// Seed makes training deterministic.
	Seed uint64
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)

	// ShardWorkers is the internal parallelism a shard job asks for
	// per share of its lane (Job.Workers is the lane's share times
	// this); 0 means NumCPU. A remyshardd daemon overrides Job.Workers
	// with its own -workers, so it sizes only in-process fallback
	// evaluations and workers that keep the job's figure (the
	// benchmark's loopback servers).
	ShardWorkers int
	// ShardTimeout bounds the silence between frames on a worker lane
	// — worker heartbeats reset it — so it detects dead or hung workers
	// without capping job length; an expired wait drops the connection
	// and requeues its jobs. 0 means no limit.
	ShardTimeout time.Duration
	// Remotes, when non-empty, distributes every evaluation batch
	// over one TCP worker lane per distinct "host:port" address, each
	// a cmd/remyshardd daemon (`remyshardd -listen 127.0.0.1:PORT` on
	// this machine, or one per worker machine). Every batch is one job
	// per lane, so one connection and one round trip per worker. An
	// address named k times has a share of k: its job covers k shares
	// of the batch's slots and asks for k x ShardWorkers workers.
	// Training output stays bit-identical to the in-process trainer;
	// worker-side result caches change only where results come from,
	// never their bytes.
	Remotes []string

	// DisableEvalCache turns off the in-process slot cache, so every
	// evaluation simulates even when an identical (config, draw, tree)
	// slot was scored before. The cache changes where scores come from,
	// never their bits (memodiff tests), so this exists for
	// differential testing and memory-constrained runs, not
	// correctness.
	DisableEvalCache bool
	// EvalCache, when set, is the in-process slot cache the evaluator
	// (and the shard pool's in-process fallback) consults before
	// simulating. Leave nil to have Train build a default-sized one
	// lazily that lives for the Trainer's lifetime; supply a
	// shardnet.NewCache(n) to bound it or a shardnet.NewDiskCache to
	// keep entries warm across process restarts.
	EvalCache *shardnet.Cache

	// Metrics, when non-nil, receives the trainer's live series (slot
	// and cache totals, per-generation score gauges) and is handed to
	// the shard pool and its shardnet dialers for per-lane fabric
	// metrics; cmd/remytrain serves it on `-metrics`. Purely
	// observational: metrics never change training results.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives one GenerationRecord per
	// whisker-split round (`remytrain -telemetry gen.jsonl`). The
	// caller owns Close. Journaling never changes training results.
	Journal *telemetry.Journal

	// cfgJSON and cfgHash pin the normalized config's shard encoding
	// and its content hash for the duration of one Train call (see
	// cfgID): the hash addresses the slot cache and draw memo with the
	// same key the shard protocol ships.
	cfgJSON []byte
	cfgHash shard.Hash

	// shards is the live shard pool while a sharded Train is running
	// (see startShards); nil otherwise. shares[i] is lane i's share of
	// every batch: how many times Remotes names its address.
	shards *shard.Pool
	shares []int
	// shardJobID numbers jobs so results can be matched to requests
	// across the wire. jobStore holds one batch's jobs, one per lane,
	// and jobs points at them; both are reused from batch to batch.
	shardJobID uint64
	jobStore   []shard.Job
	jobs       []*shard.Job
	// shardResults and shardCacheHits tally shard results merged and
	// how many of them were served from worker-side caches (Train
	// goroutine only; read via ShardCacheStats after Train).
	shardResults, shardCacheHits uint64

	// slotsEvaluated counts (tree x replica) evaluation slots requested
	// across the Trainer's lifetime, cache hits and skipped slots
	// included. Atomic so a Metrics scrape can read it from the HTTP
	// goroutine mid-Train.
	slotsEvaluated atomic.Int64
	// slotsSkipped counts the slots among those that a hill-climb
	// batch took from the current tree's run instead of evaluating
	// (see optimizeWhisker).
	slotsSkipped atomic.Int64

	// cur holds the current tree's run on each of the generation's
	// replicas; batch is the last batch's runs, tree-major. Both are
	// reused from batch to batch, as is live, the replica list of a
	// hill-climb batch.
	cur, batch replicaRuns
	live       []int

	// trees holds the last batch's trees, a candidate's nil unless
	// something built it (see slotWork); enc holds their encodings,
	// baseEnc the encoding of the tree the batch was made from and
	// encBuf the candidates'. All four are reused from batch to batch.
	trees   []*remycc.Tree
	enc     [][]byte
	baseEnc []byte
	encBuf  []byte
}

// replicaRuns holds one or more trees' runs on a generation's replicas:
// per run, the score and the fired set (words words each).
type replicaRuns struct {
	scores []float64
	fired  []uint64
	words  int
}

// resize sizes r for n runs of words-word fired sets, reusing its
// buffers. Contents are left for the caller to overwrite.
func (r *replicaRuns) resize(n, words int) {
	if cap(r.scores) < n {
		r.scores = make([]float64, n)
	}
	if cap(r.fired) < n*words {
		r.fired = make([]uint64, n*words)
	}
	r.scores, r.fired, r.words = r.scores[:n], r.fired[:n*words], words
}

// takeTree copies runs [i*n, (i+1)*n) of from — tree i of a batch on
// n replicas — into r.
func (r *replicaRuns) takeTree(from *replicaRuns, i, n int) {
	w := from.words
	r.resize(n, w)
	copy(r.scores, from.scores[i*n:(i+1)*n])
	copy(r.fired, from.fired[i*n*w:(i+1)*n*w])
}

// ShardCacheStats reports, after a sharded Train, how many shard
// results were merged and how many of those were served verbatim from
// worker-side result caches (the in-process fallback never reports
// cache hits). cmd/remytrain surfaces the hit rate.
func (t *Trainer) ShardCacheStats() (hits, total uint64) {
	return t.shardCacheHits, t.shardResults
}

// SlotsEvaluated reports the total (tree x replica) evaluation slots
// requested across the Trainer's lifetime, cache hits and skipped
// slots included — the denominator for every cache hit rate
// cmd/remytrain summarizes.
func (t *Trainer) SlotsEvaluated() int64 {
	return t.slotsEvaluated.Load()
}

// SlotsSkipped reports how many of those slots a hill-climb batch
// served from the current tree's run, because the move could not
// change it, instead of looking them up or simulating them.
func (t *Trainer) SlotsSkipped() int64 {
	return t.slotsSkipped.Load()
}

// Budget bounds the search effort.
type Budget struct {
	// Generations is the number of whisker-split rounds.
	Generations int
	// OptPasses is the maximum number of action-improvement passes per
	// generation.
	OptPasses int
	// MovesPerWhisker caps hill-climb steps when optimizing one
	// whisker's action.
	MovesPerWhisker int
}

// DefaultBudget is a laptop-scale budget that trains a useful protocol
// in seconds; cmd/remytrain accepts much larger ones.
func DefaultBudget() Budget {
	return Budget{Generations: 3, OptPasses: 2, MovesPerWhisker: 6}
}

func (b Budget) normalize() Budget {
	if b.Generations < 0 {
		b.Generations = 0
	}
	if b.OptPasses <= 0 {
		b.OptPasses = 1
	}
	if b.MovesPerWhisker <= 0 {
		b.MovesPerWhisker = 4
	}
	return b
}

func (t *Trainer) logf(format string, args ...any) {
	if t.Log != nil {
		t.Log(format, args...)
	}
}

func (t *Trainer) workers() int {
	if t.Workers > 0 {
		return t.Workers
	}
	return runtime.NumCPU()
}

// evaluateBatch scores a batch of trees on the generation's common
// scenario draws (common random numbers: every candidate sees the same
// draws): tree's hill-climb candidates, tree with whisker wi's action
// set to acts[i], or with acts nil tree alone. A candidate is encoded
// by patching tree's encoding, and built as a tree only where a slot
// of it is simulated in process; t.trees holds what was built. The
// tree x replica slot space is cut into slot
// ranges — one in process, several with a shard pool — and every range
// is scored by evalSlots, here or on a worker; the merge and reduction
// below are shared, so every mode performs the identical sequence of
// float operations — the root of the bit-equality guarantee.
//
// A non-nil reps restricts evaluation to those replicas: every other
// replica's run of every tree is taken from the current tree's (t.cur),
// which must then be that of a tree of the same structure in the same
// generation. The runs land in t.batch either way, tree-major, so the
// mean adds the same per-slot floats in the same order. It returns the
// mean objective per tree and, when usageFor is a valid index, the
// merged whisker usage of that tree.
func (t *Trainer) evaluateBatch(cfg *Config, tree *remycc.Tree, wi int, acts []remycc.Action, gen, usageFor int, reps []int) ([]float64, *remycc.UsageStats) {
	nTrees := len(acts)
	if acts == nil {
		nTrees = 1
	}
	t.trees = slices.Grow(t.trees[:0], nTrees)[:nTrees]
	clear(t.trees)
	if acts == nil {
		t.trees[0] = tree
	}
	if usageFor < 0 || usageFor >= nTrees {
		usageFor = -1
	}
	replicas := cfg.Replicas
	nr := replicas
	if reps != nil {
		nr = len(reps)
	}
	nSlots := nTrees * nr
	t.slotsEvaluated.Add(int64(nTrees * replicas))
	t.slotsSkipped.Add(int64(nTrees * (replicas - nr)))
	words := firedWords(tree.Len())
	runs := &t.batch
	runs.resize(nTrees*replicas, words)
	if reps != nil {
		if t.cur.words != words || len(t.cur.scores) != replicas {
			panic(fmt.Sprintf("remy: skipping replicas of %d-word trees against a current tree of %d words", words, t.cur.words))
		}
		// A replica left out runs every candidate exactly as it ran
		// the current tree.
		for ti := range nTrees {
			copy(runs.scores[ti*replicas:], t.cur.scores)
			copy(runs.fired[ti*replicas*words:], t.cur.fired)
		}
	}

	var usageK []*remycc.UsageStats // per-replica usage of trees[usageFor]
	if usageFor >= 0 {
		usageK = make([]*remycc.UsageStats, replicas)
	}
	if nSlots > 0 {
		cfgJSON, cfgHash := t.cfgID(cfg)
		cache := t.localCache()
		var enc [][]byte // slot-key and wire form of the trees
		if t.shards != nil || cache != nil {
			enc = t.encodeBatch(tree, wi, acts)
		}

		batch := slotWork{
			cfg: cfg, cfgHash: cfgHash, reps: reps, trees: t.trees, enc: enc, base: tree, wi: wi, acts: acts,
			lo: 0, hi: nSlots, usageFor: usageFor, workers: t.workers(),
		}
		var jobs []*shard.Job // nil in process: one result for the whole batch
		var results []*shard.Result
		if t.shards != nil {
			jobs = t.shardJobs(&batch, cfgJSON, gen)
			var err error
			if results, err = t.shards.Do(jobs); err != nil {
				panic(fmt.Sprintf("remy: shard batch failed: %v", err))
			}
			t.shardResults += uint64(len(results))
			for _, res := range results {
				if res.Cached {
					t.shardCacheHits++
				}
			}
		} else {
			// Slot tier only: the replay tier exists to skip decoding a
			// job's bytes, and nothing was encoded.
			batch.draws = drawsFor(cfgHash, t.Seed, gen, cfg)
			results = []*shard.Result{evalSlots(batch, cache)}
		}

		for i, res := range results {
			lo, hi := 0, nSlots
			if jobs != nil {
				lo, hi = jobs[i].SlotLo, jobs[i].SlotHi
			}
			if len(res.Scores) != hi-lo || len(res.Fired) != (hi-lo)*words {
				panic(fmt.Sprintf("remy: slots [%d,%d) returned %d scores and %d fired words", lo, hi, len(res.Scores), len(res.Fired)))
			}
			for s := lo; s < hi; s++ {
				ti, k := batch.slot(s)
				j := ti*replicas + k
				runs.scores[j] = res.Scores[s-lo]
				copy(runs.fired[j*words:(j+1)*words], res.Fired[(s-lo)*words:])
			}
			for fi := range res.Usage {
				uf := &res.Usage[fi]
				if usageK == nil || uf.K < 0 || uf.K >= len(usageK) {
					panic(fmt.Sprintf("remy: slots [%d,%d) returned usage for replica %d", lo, hi, uf.K))
				}
				usageK[uf.K] = uf.Stats()
			}
		}
	}

	means := make([]float64, nTrees)
	for ti := range means {
		total := 0.0
		for k := 0; k < replicas; k++ {
			total += runs.scores[ti*replicas+k]
		}
		means[ti] = total / float64(replicas)
	}
	var usage *remycc.UsageStats
	if usageFor >= 0 {
		usage = remycc.NewUsageStats(tree.Len())
		for k, u := range usageK {
			if u == nil {
				panic(fmt.Sprintf("remy: no usage returned for replica %d", k))
			}
			usage.Merge(u)
		}
	}
	return means, usage
}

// encodeBatch renders a batch's trees in the stable binary codec into
// the Trainer's reused storage: tree once, and each candidate as that
// encoding with whisker wi's action patched in.
func (t *Trainer) encodeBatch(tree *remycc.Tree, wi int, acts []remycc.Action) [][]byte {
	var err error
	if t.baseEnc, err = tree.AppendBinary(t.baseEnc[:0]); err != nil {
		panic(fmt.Sprintf("remy: encode tree: %v", err))
	}
	t.enc = t.enc[:0]
	if acts == nil {
		t.enc = append(t.enc, t.baseEnc)
		return t.enc
	}
	// Grown once up front: no candidate's bytes move as the next is
	// appended.
	t.encBuf = slices.Grow(t.encBuf[:0], len(acts)*len(t.baseEnc))
	for _, a := range acts {
		start := len(t.encBuf)
		t.encBuf = remycc.AppendWithAction(t.encBuf, t.baseEnc, wi, a)
		t.enc = append(t.enc, t.encBuf[start:len(t.encBuf):len(t.encBuf)])
	}
	return t.enc
}

// evaluate scores a tree on every one of the generation's common
// scenario draws and returns the mean objective and merged whisker
// usage. The tree becomes the current tree whose runs hill-climb
// batches skip against.
func (t *Trainer) evaluate(cfg *Config, tree *remycc.Tree, gen int) (float64, *remycc.UsageStats) {
	means, usage := t.evaluateBatch(cfg, tree, 0, nil, gen, 0, nil)
	t.cur.takeTree(&t.batch, 0, cfg.Replicas)
	return means[0], usage
}

// numNeighbors is how many candidate actions neighbors returns.
const numNeighbors = 14

// neighbors generates the candidate actions adjacent to a: each
// dimension of the action triplet (§3.5) moved alone.
func neighbors(a remycc.Action) []remycc.Action {
	out := make([]remycc.Action, 0, numNeighbors)
	add := func(n remycc.Action) { out = append(out, n.Clamp()) }
	for _, dm := range []float64{-0.2, -0.05, 0.05, 0.2} {
		n := a
		n.WindowMult += dm
		add(n)
	}
	for _, db := range []float64{-4, -1, 1, 4} {
		n := a
		n.WindowIncr += db
		add(n)
	}
	for _, ft := range []float64{0.25, 0.5, 0.8, 1.25, 2, 4} {
		n := a
		n.Intersend *= ft
		add(n)
	}
	return out
}

// improvementEpsilon is the minimum objective gain to accept a move
// (guards against chasing simulation noise).
const improvementEpsilon = 1e-4

// Train runs the search and returns the trained tree. The
// configuration must pass Validate; training has no error path, so a
// bad config panics with Validate's diagnostic rather than failing
// obscurely deep inside a generation.
func (t *Trainer) Train(b Budget) *remycc.Tree {
	if err := t.Cfg.Validate(); err != nil {
		panic("remy: invalid training config: " + err.Error())
	}
	norm := t.Cfg.normalize()
	cfg := &norm
	b = b.normalize()
	// Pin the config's encoding and content hash for the whole search
	// so no batch re-marshals it.
	t.cfgJSON, t.cfgHash = t.cfgID(cfg)
	defer func() { t.cfgJSON = nil }()
	if len(t.Remotes) > 0 {
		stopShards := t.startShards()
		defer stopShards()
	}
	tree := remycc.NewTree()

	// The telemetry layer (generation journal, registry gauges) only
	// observes: wall clocks and counter snapshots happen outside the
	// float work, so instrumented and plain runs train byte-identical
	// trees.
	instrumented := t.Journal != nil || t.Metrics != nil
	t.registerTrainerMetrics()
	// Journal records buffer in memory; flush when training ends so a
	// caller that reads the journal right after Train sees every
	// generation (Close still owns the underlying file).
	defer func() {
		if err := t.Journal.Flush(); err != nil {
			t.logf("remy: telemetry journal: %v", err)
		}
	}()
	var prevScore float64
	for gen := 0; ; gen++ {
		var genStart time.Time
		var snap genSnapshot
		if instrumented {
			genStart = time.Now()
			snap = t.counterSnapshot()
		}
		score, usage := t.evaluate(cfg, tree, gen)
		t.logf("gen %d: score %.4f, %d whiskers", gen, score, tree.Len())
		// Moves change actions, never domains, so the whisker every
		// connection starts in is fixed for the generation.
		resetW := tree.ResetWhisker()

		// Action optimization passes.
		for pass := 0; pass < b.OptPasses; pass++ {
			order := usageOrder(usage)
			start := tree
			for _, wi := range order {
				tree, score = t.optimizeWhisker(cfg, tree, wi, resetW, score, gen, b.MovesPerWhisker)
			}
			// Every accepted move raises the score by more than
			// improvementEpsilon, so a pass that moved nothing is the one
			// that ends the passes, with tree, score and usage as they
			// were. After a pass that moved the tree its usage is stale,
			// and only the next pass's order and the split read it, so it
			// is refreshed unless this was the last generation's last
			// pass. The refresh cannot move the score: the accepted
			// candidate's mean already adds the same per-replica floats
			// in the same order, since on a replica the move could not
			// change its run is the current tree's (optimizeWhisker).
			if tree == start {
				break
			}
			if gen < b.Generations || pass < b.OptPasses-1 {
				_, usage = t.evaluate(cfg, tree, gen)
			}
		}

		// Split the most-used whisker at its mean observed memory
		// (Remy's adaptive split: midpoint splits waste whiskers on
		// empty memory regions) unless the generation budget is spent.
		// The decision is folded into one (splitW, note, done) triple
		// so a single journal emission covers every exit path.
		splitW, note, done := -1, "", false
		switch {
		case gen >= b.Generations:
			done = true
		default:
			wi := usage.MostUsed()
			if wi < 0 {
				t.logf("gen %d: no whisker usage; stopping", gen)
				note, done = "no-usage", true
				break
			}
			nt, ok := tree.Split(wi, usage.Mean(wi), enabledDims(cfg.Mask))
			if !ok {
				t.logf("gen %d: split degenerate; stopping", gen)
				note, done = "split-degenerate", true
				break
			}
			splitW = wi
			tree = nt
			t.logf("gen %d: split whisker %d -> %d whiskers", gen, wi, tree.Len())
		}
		if instrumented {
			delta := 0.0
			if gen > 0 {
				delta = score - prevScore
			}
			t.emitGeneration(gen, genStart, snap, score, delta, tree.Len(), splitW, note)
		}
		prevScore = score
		if done {
			break
		}
	}
	return tree
}

// optimizeWhisker hill-climbs one whisker's action; all candidate
// neighbor evaluations (candidate x replica) run as one batch. Only
// the accepted candidate is sure to be built as a tree (see
// evaluateBatch).
//
// A candidate differs from the current tree only in whisker wi's
// action, and a run reads an action only when its whisker fires on an
// ACK — or, for the reset whisker resetW, at every connection start.
// So on a replica where wi never fired under the current tree, every
// candidate's run is bit-identical to the current tree's: the batch
// runs only the other replicas (liveReps) and takes the rest from
// t.cur, which an accepted candidate's runs then replace.
func (t *Trainer) optimizeWhisker(cfg *Config, tree *remycc.Tree, wi, resetW int, score float64, gen, maxMoves int) (*remycc.Tree, float64) {
	for move := 0; move < maxMoves; move++ {
		cands := neighbors(tree.Action(wi))
		scores, _ := t.evaluateBatch(cfg, tree, wi, cands, gen, -1, t.liveReps(cfg, wi, resetW))
		best, bestScore := -1, score
		for ci, s := range scores {
			if s > bestScore+improvementEpsilon {
				best, bestScore = ci, s
			}
		}
		if best < 0 {
			break
		}
		next := t.trees[best]
		if next == nil {
			next = tree.WithAction(wi, cands[best])
		}
		tree, score = next, bestScore
		t.cur.takeTree(&t.batch, best, cfg.Replicas)
		t.logf("  whisker %d -> %+v (score %.4f)", wi, tree.Action(wi), score)
	}
	return tree, score
}

// liveReps returns the replicas on which a move of whisker wi can
// change the current tree's run — those where wi fired — or nil when
// that is all of them. The reset whisker's intersend is read at every
// connection start, fired or not, so its moves run everywhere.
func (t *Trainer) liveReps(cfg *Config, wi, resetW int) []int {
	if wi == resetW {
		return nil
	}
	if t.live == nil {
		t.live = make([]int, 0, cfg.Replicas)
	}
	live := t.live[:0]
	word, bit := wi/64, uint64(1)<<(wi%64)
	for k := 0; k < cfg.Replicas; k++ {
		if t.cur.fired[k*t.cur.words+word]&bit != 0 {
			live = append(live, k)
		}
	}
	t.live = live
	if len(live) == cfg.Replicas {
		return nil
	}
	return live
}

// usageOrder returns whisker indices sorted by descending use count,
// skipping unused whiskers.
func usageOrder(u *remycc.UsageStats) []int {
	var idx []int
	for i, c := range u.Count {
		if c > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return u.Count[idx[a]] > u.Count[idx[b]] })
	return idx
}

// enabledDims lists the splittable memory dimensions under a mask.
func enabledDims(mask remycc.SignalMask) []remycc.Signal {
	var dims []remycc.Signal
	for s := remycc.Signal(0); s < remycc.NumSignals; s++ {
		if mask.Enabled(s) {
			dims = append(dims, s)
		}
	}
	return dims
}
