package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"learnability/internal/cc/remycc"
	"learnability/internal/units"
)

// Method, fixed for all workloads. A workload is a fixed op list; one
// pass executes the whole list once, closed loop, one op at a time.
// After one untimed warm-up pass the run repeats whole passes for the
// budget, and throughput comes from the median pass. End-to-end
// numbers are read with tracing off; one traced pass plus the layer
// probes, in a run of its own, give the per-layer numbers.

const (
	// defaultSeconds is the timed budget of one run (BENCHMARK.json's
	// run_seconds).
	defaultSeconds = 12
	// minPasses is the fewest timed passes a run reports a median of.
	minPasses = 3
	// maxProcs caps GOMAXPROCS so the numbers mean the same on a larger
	// box; the trainer's two workers are the only concurrency.
	maxProcs = 2
	// setupSamples is how many fresh processes a run measures set-up in,
	// its own included; set-up is a single event per process, so only
	// more processes give a median.
	setupSamples = 3
)

//go:embed testdata/tao-dumbbell.json
var taoJSON []byte

// loadTao decodes the committed Tao tree; decoding validates the
// whisker partition.
func loadTao() (*remycc.Tree, error) {
	var tree remycc.Tree
	if err := json.Unmarshal(taoJSON, &tree); err != nil {
		return nil, fmt.Errorf("testdata/tao-dumbbell.json: %w", err)
	}
	return &tree, nil
}

// scale sizes the workloads. fullScale is the benchmark; smokeScale is
// the cut-down budget the harness test runs every workload at.
type scale struct {
	dumbbellDur   units.Duration // simulated time per eval-dumbbell op
	fabricDur     units.Duration // simulated time per eval-fabric op
	trainDur      units.Duration // simulated time per training slot
	trainReplicas int
	trainGens     int
	probeIters    int
	// tailSamples is how many op timings a traced run of a workload of
	// millisecond ops collects: a p99 needs 1 000 under the percentile
	// rule (ten samples beyond it).
	tailSamples int
}

var (
	fullScale = scale{
		dumbbellDur: 12 * units.Second, fabricDur: 2 * units.Second,
		trainDur: 5 * units.Second, trainReplicas: 4, trainGens: 1, probeIters: 50000, tailSamples: 1000,
	}
	smokeScale = scale{
		dumbbellDur: 3 * units.Second, fabricDur: 300 * units.Millisecond,
		trainDur: units.Second, trainReplicas: 2, trainGens: 0, probeIters: 200,
	}
)

// session is one opened workload: its op list plus whatever set-up
// built (the loaded tree, a warm worker).
type session interface {
	opNames() []string
	// pass executes the op list once, untraced.
	pass() passResult
	// traced executes it once on the path that exposes the layers'
	// counters, recording spans into tr and per-layer metrics into lm
	// (either may be nil). refs are the untraced passes it may compare
	// against.
	traced(tr *tracer, lm *metricSet, refs []passResult) passResult
	close()
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	why  string
	// perSlot says the workload's op, for allocation accounting, is one
	// training slot; otherwise it is one scenario run.
	perSlot bool
	open    func(seed uint64, sc scale, tree *remycc.Tree) (session, error)
}

var workloads = []workload{
	{
		name: "eval-dumbbell",
		why:  "Fig. 2 sweep: 4 algorithms x 7 link speeds, long fat pipes; heap holds packets in flight, build cost nil. Event-core changes must show here.",
		open: func(seed uint64, sc scale, tree *remycc.Tree) (session, error) {
			return &evalSession{ops: dumbbellOps(seed, sc, tree)}, nil
		},
	},
	{
		name: "eval-fabric",
		why:  "Same event core, other use: fat-tree and parking lot, 3 routings x 3 queues; many links, small BDP, AQM, ECN, per-run layout. A heap tuned for dumbbells may lose here.",
		open: func(seed uint64, sc scale, tree *remycc.Tree) (session, error) {
			return &evalSession{ops: fabricOps(seed, sc, tree)}, nil
		},
	},
	{
		name:    "train-cold",
		why:     "Three Remy searches in process from an empty cache: simulation-bound, so it inherits event-core gains; slot cache on its write side, worker pool, tree codec.",
		perSlot: true,
		open: func(_ uint64, sc scale, _ *remycc.Tree) (session, error) {
			return openTrain(inProcess, sc)
		},
	},
	{
		name:    "train-tcp-cold",
		why:     "The same searches through 2 TCP lanes to a fresh loopback worker: identical work, so the gap to train-cold is the fabric's overhead under load.",
		perSlot: true,
		open: func(_ uint64, sc scale, _ *remycc.Tree) (session, error) {
			return openTrain(tcpCold, sc)
		},
	},
	{
		name:    "train-tcp-warm",
		why:     "The same searches against a worker whose cache set-up filled: zero simulation, pure bookkeeping, codec, round trips and cache reads. Event-core changes must not move it.",
		perSlot: true,
		open: func(_ uint64, sc scale, _ *remycc.Tree) (session, error) {
			return openTrain(tcpWarm, sc)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opOutcome is one executed op: its wall time and either the digest of
// its output or why it failed.
type opOutcome struct {
	ns     int64
	digest [32]byte
	err    error
}

// passResult is one pass over the op list.
type passResult struct {
	wall time.Duration
	ops  []opOutcome
	// work is the pass's numerator: training slots, or packets delivered
	// (known only to a traced pass; 0 from an untraced eval pass).
	work int64
}

func newPassResult(ops int) passResult { return passResult{ops: make([]opOutcome, ops)} }

// failAll marks every op failed with err (a pass that could not start).
func (p passResult) failAll(err error) passResult {
	for i := range p.ops {
		p.ops[i].err = err
	}
	return p
}

// firstErr is the first failed op's error, or nil.
func (p passResult) firstErr() error {
	for _, op := range p.ops {
		if op.err != nil {
			return op.err
		}
	}
	return nil
}

// opSamples collects op i's wall time, in nanoseconds, from each pass.
func opSamples(passes []passResult, i int) []float64 {
	out := make([]float64, len(passes))
	for k, p := range passes {
		out[k] = float64(p.ops[i].ns)
	}
	return out
}

// tally counts ops attempted and failed across a run, and holds each
// op's reference digest: the first one seen. An op fails on an error,
// a failed output check, or a digest that differs from its reference —
// which covers pass against pass and pooled against fresh alike.
// Digests are recorded, not golden: a deliberate simulator fix shows
// as parent != change in -compare without being a failure.
type tally struct {
	names     []string
	ref       [][32]byte
	seen      []bool
	attempted int
	failed    int
	failures  []string // the first few, for the report
}

func newTally(names []string) *tally {
	return &tally{names: names, ref: make([][32]byte, len(names)), seen: make([]bool, len(names))}
}

func (t *tally) add(what string, p passResult) {
	for i, op := range p.ops {
		t.attempted++
		err := op.err
		switch {
		case err != nil:
		case !t.seen[i]:
			t.ref[i], t.seen[i] = op.digest, true
		case op.digest != t.ref[i]:
			err = fmt.Errorf("digest %x differs from the first pass's %x", op.digest[:6], t.ref[i][:6])
		}
		if err != nil {
			t.failed++
			if len(t.failures) < 8 {
				t.failures = append(t.failures, fmt.Sprintf("%s pass, %s: %v", what, t.names[i], err))
			}
		}
	}
}

// digest is the workload's digest: the hash of its ops' reference
// digests in op order.
func (t *tally) digest() string {
	h := sha256.New()
	for _, d := range t.ref {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is everything one run reports. The driver reads result();
// the all-workloads mode and -compare read the whole record from the
// out directory.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Trace      int                    `json:"trace"`
	GoVersion  string                 `json:"go"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Digest     string                 `json:"digest"`
	Ops        []string               `json:"ops"`
	OpDigests  []string               `json:"op_digests"`
	OpMS       []float64              `json:"op_ms_median"`
	Passes     int                    `json:"passes"`
	PassMS     [3]float64             `json:"pass_ms_quartiles"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// result is the line the driver reads.
func (r *record) result() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// options are one run's inputs.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	sc      scale
	outDir  string
	// floor is the fewest timed passes to run (minPasses for a real run).
	floor int
	// start is when set-up began: process start for a real run.
	start time.Time
	// moreSetups measures set-up in that many further fresh processes;
	// nil (the harness test) keeps the run's own sample alone.
	moreSetups func() ([]float64, error)
}

// runWorkload opens w, warms it up, and measures it: end to end from
// untraced passes, or (trace) per layer from one traced pass and the
// probes.
func runWorkload(w *workload, o options) (*record, error) {
	tree, err := loadTao()
	if err != nil {
		return nil, err
	}
	sess, err := w.open(o.seed, o.sc, tree)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer sess.close()
	tl := newTally(sess.opNames())
	tl.add("warm-up", sess.pass())
	setup := time.Since(o.start).Seconds()

	rec := &record{
		Workload: w.name, Seed: o.seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var passes []passResult
	if o.trace {
		rec.Trace = 1
		passes, rec.Metrics, err = measureLayers(w, sess, tl, tree, o)
	} else {
		passes, rec.Metrics, err = measureEndToEnd(w, sess, tl, setup, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = float64(p.wall.Nanoseconds()) / 1e6
	}
	rec.Passes = len(passes)
	rec.PassMS[0], rec.PassMS[1], rec.PassMS[2] = quartiles(walls)
	rec.Attempted, rec.Failed, rec.Failures = tl.attempted, tl.failed, tl.failures
	rec.Correct = tl.failed == 0
	rec.Digest = tl.digest()
	rec.Ops = tl.names
	for i, d := range tl.ref {
		rec.OpDigests = append(rec.OpDigests, hex.EncodeToString(d[:]))
		rec.OpMS = append(rec.OpMS, median(opSamples(passes, i))/1e6)
	}
	return rec, nil
}

// timedPasses repeats whole passes until both the budget and the pass
// floor are met.
func timedPasses(sess session, tl *tally, what string, seconds float64, floor int) []passResult {
	var passes []passResult
	t0 := time.Now()
	for len(passes) < floor || time.Since(t0).Seconds() < seconds {
		p := sess.pass()
		tl.add(what, p)
		passes = append(passes, p)
	}
	return passes
}

// medianWall is the median pass's wall time in seconds.
func medianWall(passes []passResult) float64 {
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
	}
	return median(walls)
}

// allocOps is how many ops, for allocation accounting, the passes ran.
func allocOps(w *workload, passes []passResult, workPerPass int64) float64 {
	if w.perSlot {
		return float64(workPerPass) * float64(len(passes))
	}
	return float64(len(passes) * len(passes[0].ops))
}

// passWork is the work of one pass: what the untraced passes report
// (training slots, which must agree pass to pass), or what a fresh
// pass counts (packets).
func passWork(sess session, tl *tally, passes []passResult) (int64, error) {
	work := passes[0].work
	for _, p := range passes {
		if p.work != work {
			return 0, fmt.Errorf("passes did %d and %d units of work; the work is not fixed", work, p.work)
		}
	}
	if work == 0 {
		fresh := sess.traced(nil, nil, nil)
		tl.add("fresh", fresh) // pooled and fresh digests must agree
		work = fresh.work
	}
	if work == 0 {
		return 0, fmt.Errorf("a pass did no work")
	}
	return work, nil
}

func measureEndToEnd(w *workload, sess session, tl *tally, setup float64, o options) ([]passResult, map[string]metricValue, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	passes := timedPasses(sess, tl, "timed", o.seconds, o.floor)
	runtime.ReadMemStats(&m1)
	work, err := passWork(sess, tl, passes)
	if err != nil {
		return nil, nil, err
	}
	setups := []float64{setup}
	if o.moreSetups != nil {
		more, err := o.moreSetups()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, more...)
	}

	m := newMetricSet(endToEnd)
	m.set("work_per_s", float64(work)/medianWall(passes))
	m.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/allocOps(w, passes, work))
	m.set("setup_s", median(setups))
	return passes, m.vals, nil
}

func measureLayers(w *workload, sess session, tl *tally, tree *remycc.Tree, o options) ([]passResult, map[string]metricValue, error) {
	// Untraced reference passes: what the traced pass is compared with.
	// A workload of millisecond ops can afford the samples a p99 needs.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	refs := timedPasses(sess, tl, "reference", 0, 2)
	if medianWall(refs) < 0.05 {
		refs = append(refs, timedPasses(sess, tl, "reference", 0, o.sc.tailSamples/len(tl.names))...)
	}
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	lm := newMetricSet(perLayer)
	traced := sess.traced(tr, lm, refs)
	tl.add("traced", traced)
	if traced.work == 0 {
		return nil, nil, fmt.Errorf("the traced pass did no work")
	}
	lm.set("telemetry.trace_overhead_pct", (traced.wall.Seconds()/medianWall(refs)-1)*100)
	lm.set("mem.peak_rss_mb", rss)
	lm.set("mem.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/allocOps(w, refs, traced.work))
	if err := runProbes(lm, tree, o.sc, o.outDir); err != nil {
		return nil, nil, err
	}
	if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	return refs, lm.vals, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// print writes every metric by name with its unit, in table order.
func (r *record) print() {
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	fmt.Printf("%s  seed=%d trace=%d gomaxprocs=%d %s\n", r.Workload, r.Seed, r.Trace, r.GOMAXPROCS, r.GoVersion)
	fmt.Printf("  passes=%d  pass_ms q1/median/q3 = %.2f / %.2f / %.2f\n", r.Passes, r.PassMS[0], r.PassMS[1], r.PassMS[2])
	fmt.Printf("  ops attempted=%d failed=%d fail_share=%g  digest=%s\n", r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), r.Digest[:16])
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	for _, d := range defs {
		fmt.Printf("  %-36s %16.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
}
