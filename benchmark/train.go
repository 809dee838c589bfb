package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/scenario"
	"learnability/internal/telemetry"
	"learnability/internal/units"
)

// trainMode selects the path a train workload's slots take.
type trainMode int

const (
	inProcess trainMode = iota // the default remytrain path: a worker pool in the trainer
	tcpCold                    // two TCP lanes to a fresh loopback worker per pass
	tcpWarm                    // two TCP lanes to one worker whose cache set-up filled
)

// trainSeeds are the three searches of a pass. They are constants of
// the workload, not functions of -seed: the hill climb is chaotic in
// its seed (six seeds gave 218 to 822 slots/s on one box), so a pass
// of seed-derived searches would have no throughput a bound could
// hold. The work is fixed; -seed moves the eval workloads only.
var trainSeeds = []uint64{0, 1, 2}

// trainWorkers is the simulation concurrency of every train workload:
// two pool workers in process, or two lanes of one worker each.
const trainWorkers = 2

// trainConfig is BenchmarkTrainerSharded's scenario distribution.
func trainConfig(sc scale) remy.Config {
	return remy.Config{
		Topology:     scenario.Dumbbell,
		LinkSpeedMin: 10 * units.Mbps,
		LinkSpeedMax: 100 * units.Mbps,
		MinRTTMin:    150 * units.Millisecond,
		MinRTTMax:    150 * units.Millisecond,
		SendersMin:   2,
		SendersMax:   2,
		MeanOn:       units.Second,
		MeanOff:      units.Second,
		Buffering:    scenario.FiniteDropTail,
		BufferBDP:    5,
		Delta:        1,
		Duration:     sc.trainDur,
		Replicas:     sc.trainReplicas,
	}
}

// worker is a loopback shardnet server the harness hosts in process.
type worker struct {
	ln     net.Listener
	done   chan struct{}
	reg    *telemetry.Registry // nil unless traced
	counts *wireCounts         // nil unless traced
}

// startWorker serves eval on a loopback port. A traced worker reports
// its series to a registry and counts its wire traffic through a
// countingListener; an untraced one is exactly what NewShardServer
// builds.
func startWorker(eval shard.Eval, traced bool) (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	w := &worker{ln: ln, done: make(chan struct{})}
	srv := &shardnet.Server{Eval: eval}
	serve := ln
	if traced {
		w.reg, w.counts = telemetry.NewRegistry(), &wireCounts{}
		srv.Metrics = w.reg
		serve = countingListener{Listener: ln, counts: w.counts}
	}
	go func() {
		defer close(w.done)
		_ = srv.Serve(serve) // returns nil once the listener closes
	}()
	return w, nil
}

func (w *worker) addr() string { return w.ln.Addr().String() }

// stop closes the listener and waits for the accept loop to return.
func (w *worker) stop() {
	w.ln.Close()
	<-w.done
}

// trainSession runs a train workload's three searches.
type trainSession struct {
	mode   trainMode
	cfg    remy.Config
	budget remy.Budget

	// warm is tcpWarm's long-lived worker and warmEval its evaluator,
	// which owns the cache set-up filled; the traced pass serves the
	// same evaluator through a second, counting worker.
	warm     *worker
	warmEval shard.Eval
}

func openTrain(mode trainMode, sc scale) (*trainSession, error) {
	s := &trainSession{
		mode:   mode,
		cfg:    trainConfig(sc),
		budget: remy.Budget{Generations: sc.trainGens, OptPasses: 1, MovesPerWhisker: 2},
	}
	if mode != tcpWarm {
		return s, nil
	}
	s.warmEval = remy.CachedShardEval(shardnet.NewCache(0))
	w, err := startWorker(s.warmEval, false)
	if err != nil {
		return nil, err
	}
	s.warm = w
	// Fill the worker's cache: the cold searches set-up pays for.
	if err := s.pass().firstErr(); err != nil {
		s.close()
		return nil, fmt.Errorf("cache fill: %w", err)
	}
	return s, nil
}

func (s *trainSession) opNames() []string {
	names := make([]string, len(trainSeeds))
	for i, seed := range trainSeeds {
		names[i] = fmt.Sprintf("train/seed%d", seed)
	}
	return names
}

func (s *trainSession) close() {
	if s.warm != nil {
		s.warm.stop()
		s.warm = nil
	}
}

// trainOne runs one search and checks its tree. Train has no error
// path (a broken fabric panics), so a panic is the op's failure.
func trainOne(t *remy.Trainer, b remy.Budget) (tree *remycc.Tree, ns int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("train panicked: %v", r)
		}
	}()
	t0 := time.Now()
	tree = t.Train(b)
	ns = time.Since(t0).Nanoseconds()
	if tree.Len() < 1 {
		return nil, ns, fmt.Errorf("empty tree")
	}
	if err := tree.Validate(); err != nil {
		return nil, ns, err
	}
	return tree, ns, nil
}

// digestTree hashes the tree's stable binary encoding.
func digestTree(tree *remycc.Tree) ([32]byte, error) {
	b, err := tree.MarshalBinary()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// newTrainer builds one search's trainer: on the trainer's own pool
// when w is nil, through two lanes to w otherwise.
func (s *trainSession) newTrainer(seed uint64, w *worker) *remy.Trainer {
	t := &remy.Trainer{Cfg: s.cfg, Seed: seed, Workers: trainWorkers}
	if w != nil {
		t.Remotes = make([]string, trainWorkers)
		for i := range t.Remotes {
			t.Remotes[i] = w.addr()
		}
		t.ShardWorkers = 1
	}
	return t
}

// workerFor returns the worker a pass's lanes dial and the call that
// releases it: none in process, a fresh one with an empty cache per
// tcpCold pass, the long-lived one for tcpWarm. A traced pass always
// gets its own counting worker; tcpWarm's serves the evaluator (and so
// the cache) set-up filled.
func (s *trainSession) workerFor(traced bool) (w *worker, stop func(), err error) {
	switch {
	case s.mode == inProcess:
		return nil, func() {}, nil
	case s.mode == tcpWarm && !traced:
		return s.warm, func() {}, nil
	}
	eval := s.warmEval
	if s.mode == tcpCold {
		eval = remy.CachedShardEval(shardnet.NewCache(0))
	}
	if w, err = startWorker(eval, traced); err != nil {
		return nil, nil, err
	}
	return w, w.stop, nil
}

// pass runs the three searches untraced. A tcpCold pass pays for its
// worker's start and stop inside its wall time.
func (s *trainSession) pass() passResult {
	t0 := time.Now()
	w, stop, err := s.workerFor(false)
	if err != nil {
		return newPassResult(len(trainSeeds)).failAll(err)
	}
	p := s.run(w, nil, nil)
	stop()
	p.wall = time.Since(t0)
	return p
}

// trainCounters sums what the trainers export over a traced pass.
type trainCounters struct {
	cacheHits, cacheMisses uint64
	genWallMS              []float64
	laneJobs, laneJobNS    int64
	requeues, fallbacks    int64
	reconnects, refetches  int64
}

// run executes the searches against w. With tr it hands every trainer
// a registry and a journal and folds their counters into c.
func (s *trainSession) run(w *worker, tr *tracer, c *trainCounters) passResult {
	p := newPassResult(len(trainSeeds))
	for i, seed := range trainSeeds {
		t := s.newTrainer(seed, w)
		var journal bytes.Buffer
		if tr != nil {
			t.Metrics = telemetry.NewRegistry()
			t.Journal = telemetry.NewJournal(&journal)
		}
		id := tr.begin("remy.train", -1, i)
		tree, ns, err := trainOne(t, s.budget)
		tr.end(id)
		p.work += t.SlotsEvaluated()
		p.ops[i] = opOutcome{ns: ns, err: err}
		if err == nil {
			p.ops[i].digest, p.ops[i].err = digestTree(tree)
		}
		if tr != nil {
			c.addTrainer(t, &journal)
		}
	}
	return p
}

// addTrainer folds one finished trainer's counters into c.
func (c *trainCounters) addTrainer(t *remy.Trainer, journal *bytes.Buffer) {
	cs := t.LocalCacheStats()
	c.cacheHits += cs.Hits
	c.cacheMisses += cs.Misses
	sc := bufio.NewScanner(journal)
	for sc.Scan() {
		var rec remy.GenerationRecord
		if json.Unmarshal(sc.Bytes(), &rec) == nil {
			c.genWallMS = append(c.genWallMS, rec.WallMillis)
		}
	}
	t.Metrics.Visit(func(name string, metric any) {
		series, _, _ := strings.Cut(name, "{")
		switch series {
		case "shard_lane_jobs_total":
			c.laneJobs += metric.(*telemetry.Counter).Value()
		case "shard_lane_job_ns":
			c.laneJobNS += metric.(*telemetry.Histogram).Sum()
		case "shard_lane_requeues_total":
			c.requeues += metric.(*telemetry.Counter).Value()
		case "shard_lane_fallbacks_total":
			c.fallbacks += metric.(*telemetry.Counter).Value()
		case "shard_lane_reconnects_total":
			c.reconnects += metric.(*telemetry.Counter).Value()
		case "shard_lane_cfg_refetches_total":
			c.refetches += metric.(*telemetry.Counter).Value()
		}
	})
}

// counter reads one counter series of a worker's registry.
func counter(reg *telemetry.Registry, name string) float64 {
	return float64(reg.Counter(name).Value())
}

// traced runs the three searches with spans, registries, a journal and
// (TCP modes) a counting worker, then an in-process reference pass and
// its warm re-run, and fills the per-layer metrics.
func (s *trainSession) traced(tr *tracer, lm *metricSet, refs []passResult) passResult {
	if lm == nil {
		return s.pass()
	}
	var c trainCounters
	memoHits0, memoMisses0 := remy.DrawMemoStats()
	t0 := time.Now()
	w, stop, err := s.workerFor(true)
	if err != nil {
		return newPassResult(len(trainSeeds)).failAll(err)
	}
	defer stop() // after the worker's counters are read below
	p := s.run(w, tr, &c)
	p.wall = time.Since(t0)

	memoHits, memoMisses := remy.DrawMemoStats()
	memoHits, memoMisses = memoHits-memoHits0, memoMisses-memoMisses0
	slots := float64(p.work)
	lm.set("remy.slots", slots)
	lm.set("remy.cache_hit_share", ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)))
	lm.set("remy.draw_memo_hit_share", ratio(float64(memoHits), float64(memoHits+memoMisses)))
	lm.set("remy.gen_wall_ms_p50", median(c.genWallMS))

	var trainMS []float64
	for _, r := range refs {
		for _, op := range r.ops {
			trainMS = append(trainMS, float64(op.ns)/1e6)
		}
	}
	lm.set("remy.train_ms_p50", median(trainMS))
	if tailPercentile(len(trainMS)) >= 99 {
		// Only a workload of millisecond ops collects the samples a p99
		// needs (train-tcp-warm).
		lm.set("remy.train_ms_p99", percentile(trainMS, 99))
	}

	// The in-process reference: the same searches on the trainer's own
	// pool, then again on the same, now warm, trainers. The first is
	// what the fabric's overhead is measured against; the second is the
	// search's bookkeeping floor, with every slot served from the cache.
	var coldNS, floorNS, floorSlots int64
	for i, seed := range trainSeeds {
		t := s.newTrainer(seed, nil)
		id := tr.begin("remy.train.inprocess", -1, i)
		_, ns, err := trainOne(t, s.budget)
		tr.end(id)
		cold := t.SlotsEvaluated()
		id = tr.begin("remy.train.floor", -1, i)
		_, fns, ferr := trainOne(t, s.budget)
		tr.end(id)
		if err != nil || ferr != nil {
			p.ops[i].err = fmt.Errorf("in-process reference: %v, warm re-run: %v", err, ferr)
			continue
		}
		coldNS += ns
		floorNS += fns
		floorSlots += t.SlotsEvaluated() - cold
	}
	floor := ratio(float64(floorNS), float64(floorSlots))
	lm.set("remy.ns_per_slot_floor", floor)
	lm.set("remy.floor_share", ratio(floor, ratio(float64(coldNS), float64(floorSlots))))

	if w == nil {
		return p
	}
	lm.set("shard.jobs_per_slot", ratio(float64(c.laneJobs), slots))
	laneMS := ratio(float64(c.laneJobNS), float64(c.laneJobs)) / 1e6
	lm.set("shard.lane_job_ms_mean", laneMS)
	lm.set("shard.requeues", float64(c.requeues))
	lm.set("shard.fallbacks", float64(c.fallbacks))
	lm.set("shard.reconnects", float64(c.reconnects))
	lm.set("shard.cfg_refetches", float64(c.refetches))
	if s.mode == tcpCold {
		lm.set("shard.fabric_overhead_pct", (ratio(medianWall(refs)*1e9, float64(coldNS))-1)*100)
	}

	jobs := counter(w.reg, "shardnet_server_jobs_total")
	srvMS := ratio(float64(w.reg.Histogram("shardnet_server_job_ns").Sum()), jobs) / 1e6
	lm.set("shardnet.wire_bytes_per_slot", ratio(float64(w.counts.bytesIn.Load()+w.counts.bytesOut.Load()), slots))
	lm.set("shardnet.reads_per_job", ratio(float64(w.counts.reads.Load()), jobs))
	lm.set("shardnet.server_job_ms_mean", srvMS)
	lm.set("shardnet.wait_ms_mean", laneMS-srvMS)
	lm.set("shardnet.server_cache_hit_share", ratio(counter(w.reg, "shardnet_server_cache_hits_total"), jobs))
	lm.set("shardnet.cfg_misses", counter(w.reg, "shardnet_server_cfg_misses_total"))
	lm.set("shardnet.heartbeats", counter(w.reg, "shardnet_server_heartbeats_total"))
	return p
}
