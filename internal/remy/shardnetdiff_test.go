package remy

// Differential tests for the distributed (TCP) shard fabric: training
// over shardnet workers — loopback servers hosted inside this test
// binary, no separate daemon build — must produce a tree BYTE-EQUAL to
// the in-process trainer, through reconnects, a worker machine lost
// for good mid-generation, a session broken by a hash-only job, and
// warm result caches.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/scenario"
	"learnability/internal/telemetry"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// startTCPWorker serves real shard jobs on a loopback listener and
// returns its address. The heartbeat is fast so
// tests with per-job timeouts exercise the liveness path.
func startTCPWorker(t *testing.T, srv *shardnet.Server) string {
	t.Helper()
	if srv == nil {
		srv = &shardnet.Server{}
	}
	if srv.Eval == nil {
		srv.Eval = EvalShardJob
	}
	if srv.Heartbeat == 0 {
		srv.Heartbeat = 25 * time.Millisecond
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served // Serve ends its sessions before it returns
	})
	return ln.Addr().String()
}

// TestShardedTrainBitEqualTCP is the tentpole guarantee: training over
// TCP worker lanes — one remote, or several — is byte-identical to the
// in-process trainer for the same seed and budget.
func TestShardedTrainBitEqualTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	a := startTCPWorker(t, nil)
	b := startTCPWorker(t, nil)
	for _, tc := range []struct {
		name string
		tr   *Trainer
	}{
		{"remote-only", &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{a}}},
		{"two-remotes", &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{a, b}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := trainBytes(t, tc.tr); !bytes.Equal(got, want) {
				t.Fatal("TCP-sharded training changed the trained tree")
			}
		})
	}
}

// laneWorker is a loopback worker that counts its connections and
// records the slot range and parallelism of every job it answers.
type laneWorker struct {
	addr string
	reg  *telemetry.Registry
	mu   sync.Mutex
	jobs []shard.Job // SlotLo, SlotHi and Workers of each job answered
}

func startLaneWorker(t *testing.T) *laneWorker {
	t.Helper()
	w := &laneWorker{reg: telemetry.NewRegistry()}
	w.addr = startTCPWorker(t, &shardnet.Server{Metrics: w.reg, Eval: func(job *shard.Job) (*shard.Result, error) {
		w.mu.Lock()
		w.jobs = append(w.jobs, shard.Job{SlotLo: job.SlotLo, SlotHi: job.SlotHi, Workers: job.Workers})
		w.mu.Unlock()
		return EvalShardJob(job)
	}})
	return w
}

// connections is how many connections the worker has served.
func (w *laneWorker) connections() int64 {
	return w.reg.Counter("shardnet_server_connections_total").Value()
}

func (w *laneWorker) answered() []shard.Job {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.jobs)
}

// TestRepeatedRemoteIsOneLane names worker a twice: that is one lane
// with a share of two, so a Train dials a once and every batch ships
// one job that starts at slot 0 and asks for 2 x ShardWorkers
// workers. With b named once beside it, b's job of every batch is the
// batch's last third, at ShardWorkers. Either way the tree is
// byte-equal to in-process training.
func TestRepeatedRemoteIsOneLane(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	for _, withB := range []bool{false, true} {
		a := startLaneWorker(t)
		remotes := []string{a.addr, a.addr}
		var b *laneWorker
		if withB {
			b = startLaneWorker(t)
			remotes = append(remotes, b.addr)
		}
		tr := &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: remotes, ShardWorkers: 1}
		if got := trainBytes(t, tr); !bytes.Equal(got, want) {
			t.Fatalf("remotes %v: training changed the trained tree", remotes)
		}
		aJobs := a.answered()
		if n := a.connections(); n != 1 {
			t.Fatalf("remotes %v: a served %d connections, want 1", remotes, n)
		}
		for _, job := range aJobs {
			if job.SlotLo != 0 || job.Workers != 2 {
				t.Fatalf("remotes %v: a answered slots [%d,%d) at %d workers, want one job per batch from slot 0 at 2", remotes, job.SlotLo, job.SlotHi, job.Workers)
			}
		}
		if !withB {
			continue
		}
		bJobs := b.answered()
		if n := b.connections(); n != 1 || len(bJobs) == 0 {
			t.Fatalf("remotes %v: b served %d connections and %d jobs, want 1 and some", remotes, n, len(bJobs))
		}
		for _, job := range bJobs {
			if n := job.SlotHi; job.SlotLo != (2*n+2)/3 || job.Workers != 1 {
				t.Fatalf("remotes %v: b answered slots [%d,%d) at %d workers, want the last third at 1", remotes, job.SlotLo, n, job.Workers)
			}
		}
	}
}

// TestTrainsShareOneWorkerConnection runs searches one after another
// against one worker: each Train's connection is parked when it
// returns and taken by the next, so the worker serves one connection
// for all of them, with no reconnect, and each tree is byte-equal to
// in-process training. Three searches (seeds 0-2) share a config and
// send every job by hash after the first; a fourth with another config
// ships it inline on the reused connection, which the worker's session
// adopts.
func TestTrainsShareOneWorkerConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	other := tinyConfig()
	other.Delta = 0.5
	searches := []struct {
		cfg  Config
		seed uint64
	}{{tinyConfig(), 0}, {tinyConfig(), 1}, {tinyConfig(), 2}, {other, 0}}
	want := make([][]byte, len(searches))
	for i, s := range searches {
		want[i] = trainBytes(t, &Trainer{Cfg: s.cfg, Seed: s.seed, Workers: 4})
	}
	// A parked connection lasts one heartbeat interval: the default
	// one, not startTCPWorker's fast one.
	workerReg := telemetry.NewRegistry()
	addr := startTCPWorker(t, &shardnet.Server{Metrics: workerReg, Heartbeat: shardnet.DefaultHeartbeat})
	for i, s := range searches {
		reg := telemetry.NewRegistry()
		tr := &Trainer{Cfg: s.cfg, Seed: s.seed, Remotes: []string{addr}, ShardWorkers: 1, Metrics: reg}
		if got := trainBytes(t, tr); !bytes.Equal(got, want[i]) {
			t.Fatalf("search %d: training over a reused connection changed the trained tree", i)
		}
		if n := reg.Counter(`shard_lane_reconnects_total{lane="0:` + addr + `"}`).Value(); n != 0 {
			t.Fatalf("search %d: %d reconnects", i, n)
		}
		if n := workerReg.Counter("shardnet_server_connections_total").Value(); n != 1 {
			t.Fatalf("search %d: the worker served %d connections, want 1", i, n)
		}
	}
}

// TestRepeatedRemoteKilledMidGeneration names a vanishing worker twice
// beside a healthy one: the doubled lane's connections die after two
// jobs and its machine is gone after two connections, so its jobs,
// each two thirds of a batch, requeue onto the healthy lane or fall
// back in-process. The tree must stay byte-equal.
func TestRepeatedRemoteKilledMidGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	v := startVanishingWorker(t, 2, 2)
	healthy := startTCPWorker(t, nil)
	tr := &Trainer{
		Cfg:          tinyConfig(),
		Seed:         seed,
		Remotes:      []string{v, v, healthy},
		ShardTimeout: time.Minute,
	}
	if got := trainBytes(t, tr); !bytes.Equal(got, want) {
		t.Fatal("a repeated worker killed mid-generation changed the trained tree")
	}
}

// TestTCPWorkerAnswersHoledTreeWithError sends a worker a job whose
// candidate tree leaves a grid point of memory space uncovered — the
// initial memory vector, which every simulated sender looks up first.
// The worker must answer with an error result instead of panicking in
// the lookup (which would take the daemon down), and the same
// connection must then serve a good job.
func TestTCPWorkerAnswersHoledTreeWithError(t *testing.T) {
	addr := startTCPWorker(t, &shardnet.Server{Eval: CachedShardEval(shardnet.NewCache(0))})
	conn, err := (&shardnet.Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cfg := tinyConfig()
	cfg.Duration = 2 * units.Second
	ncfg := cfg.normalize()
	cfgJSON, err := json.Marshal(&ncfg)
	if err != nil {
		t.Fatal(err)
	}
	holed := remycc.NewTree()
	holed.Whiskers[0].Domain.Lo[remycc.ECNFraction] = 0.5
	job := func(id uint64, tree *remycc.Tree) *shard.Job {
		enc, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return &shard.Job{
			ID: id, Version: shard.ProtocolVersion, Seed: 3, Replicas: ncfg.Replicas, UsageFor: -1,
			SlotLo: 0, SlotHi: ncfg.Replicas, Trees: [][]byte{enc}, Cfg: cfgJSON,
		}
	}

	res, err := shard.RoundTrip(conn, job(1, holed), time.Minute)
	if err != nil {
		t.Fatalf("holed tree: %v", err)
	}
	if !strings.Contains(res.Err, "contained in 0 whiskers") {
		t.Fatalf("holed tree answered %+v, want the partition error", res)
	}
	res, err = shard.RoundTrip(conn, job(2, remycc.NewTree()), time.Minute)
	if err != nil || res.Err != "" || len(res.Scores) != ncfg.Replicas {
		t.Fatalf("good job on the same connection = %+v, %v", res, err)
	}
}

// TestTCPWorkerAnswersInvalidConfigWithError ships a worker a config
// that fails Config.Validate — a fat tree of odd arity, which the
// simulator would panic on — and requires an error result instead of a
// dead daemon. The config must not be remembered: a good job on the
// same connection is served, and the bad config, sent again, is
// rejected again.
func TestTCPWorkerAnswersInvalidConfigWithError(t *testing.T) {
	addr := startTCPWorker(t, &shardnet.Server{Eval: CachedShardEval(shardnet.NewCache(0))})
	conn, err := (&shardnet.Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	tree, err := remycc.NewTree().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	job := func(id uint64, cfg Config) *shard.Job {
		ncfg := cfg.normalize()
		cfgJSON, err := json.Marshal(&ncfg)
		if err != nil {
			t.Fatal(err)
		}
		return &shard.Job{
			ID: id, Version: shard.ProtocolVersion, Seed: 3, Replicas: ncfg.Replicas, UsageFor: -1,
			SlotLo: 0, SlotHi: ncfg.Replicas, Trees: [][]byte{tree}, Cfg: cfgJSON,
		}
	}
	bad := tinyConfig()
	bad.Topology = scenario.FatTreeTopology(3, topo.ECMP)
	good := tinyConfig()
	good.Duration = 2 * units.Second

	for id, cfg := range []Config{bad, good, bad} {
		res, err := shard.RoundTrip(conn, job(uint64(id+1), cfg), time.Minute)
		if err != nil {
			t.Fatalf("job %d: %v", id+1, err)
		}
		if cfg.Topology.Kind == scenario.KindFatTree {
			if !strings.Contains(res.Err, "fat-tree arity must be even") {
				t.Fatalf("job %d with an odd-arity fat tree answered %+v, want the arity error", id+1, res)
			}
		} else if res.Err != "" || len(res.Scores) != good.normalize().Replicas {
			t.Fatalf("good job on the same connection = %+v", res)
		}
	}
}

// TestTCPWorkerAnswersCrasherConfigsWithError ships a worker every
// config in testdata/fuzz/FuzzShardConfig: each passed the worker's
// decode once and then panicked while its first draw ran, which took
// the daemon down. Each must now be answered with an error result, and
// the same session must then serve a good job.
func TestTCPWorkerAnswersCrasherConfigsWithError(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzShardConfig", "*"))
	if err != nil || len(paths) < 5 {
		t.Fatalf("crasher seeds: %v, %v", paths, err)
	}
	addr := startTCPWorker(t, &shardnet.Server{Eval: CachedShardEval(shardnet.NewCache(0))})
	conn, err := (&shardnet.Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	tree, err := remycc.NewTree().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	good := tinyConfig()
	good.Duration = 2 * units.Second
	good = good.normalize()
	goodJSON, err := json.Marshal(&good)
	if err != nil {
		t.Fatal(err)
	}
	job := func(id uint64, cfg []byte) *shard.Job {
		return &shard.Job{
			ID: id, Version: shard.ProtocolVersion, Seed: 3, Replicas: good.Replicas, UsageFor: -1,
			SlotLo: 0, SlotHi: good.Replicas, Trees: [][]byte{tree}, Cfg: cfg,
		}
	}
	var id uint64
	for _, path := range paths {
		id++
		res, err := shard.RoundTrip(conn, job(id, fuzzSeedBytes(t, path)), time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if !strings.Contains(res.Err, "invalid shard config") {
			t.Fatalf("%s answered %+v, want the config refused", filepath.Base(path), res)
		}
		id++
		res, err = shard.RoundTrip(conn, job(id, goodJSON), time.Minute)
		if err != nil || res.Err != "" || len(res.Scores) != good.Replicas {
			t.Fatalf("good job after %s on the same session = %+v, %v", filepath.Base(path), res, err)
		}
	}
}

// fuzzSeedBytes reads the []byte value of a one-value fuzz corpus file.
func fuzzSeedBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, val, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	quoted, ok := strings.CutPrefix(val, "[]byte(")
	if header != "go test fuzz v1" || !ok || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("%s is not a one-value []byte fuzz seed", path)
	}
	b, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(b)
}

// limitListener grants at most n Accepts, then closes for good —
// simulating a worker machine that disappears and never comes back,
// so redials fail and the pool must requeue elsewhere. Its next Accept
// waits for done, so Serve, which ends its sessions when it returns,
// keeps the ones it accepted until their own ends.
type limitListener struct {
	net.Listener
	left atomic.Int64
	done chan struct{}
}

func (l *limitListener) Accept() (net.Conn, error) {
	if l.left.Add(-1) < 0 {
		l.Listener.Close()
		<-l.done
		return nil, net.ErrClosed
	}
	return l.Listener.Accept()
}

// startVanishingWorker serves real shard jobs on a loopback listener
// that grants conns connections, each dropped after dieAfter jobs;
// then the worker is gone for good and redials fail.
func startVanishingWorker(t *testing.T, conns, dieAfter int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lim := &limitListener{Listener: ln, done: make(chan struct{})}
	t.Cleanup(func() {
		ln.Close()
		close(lim.done)
	})
	lim.left.Store(int64(conns))
	go (&shardnet.Server{Eval: EvalShardJob, Heartbeat: 25 * time.Millisecond, DieAfter: dieAfter}).Serve(lim)
	return ln.Addr().String()
}

// TestShardedTrainTCPWorkerKilledMidGeneration kills one of two TCP
// workers mid-generation — each of its connections dies after two jobs
// (the third is read and dropped, a job lost in flight), and after two
// connections the machine is gone for good — and still requires a
// byte-equal result: dropped jobs requeue onto the surviving worker
// (or the in-process fallback), and a requeued job's result is
// bit-identical by purity.
func TestShardedTrainTCPWorkerKilledMidGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)

	healthy := startTCPWorker(t, nil)
	tr := &Trainer{
		Cfg:          tinyConfig(),
		Seed:         seed,
		Remotes:      []string{healthy, startVanishingWorker(t, 2, 2)},
		ShardTimeout: time.Minute,
	}
	if got := trainBytes(t, tr); !bytes.Equal(got, want) {
		t.Fatal("a worker killed mid-generation changed the trained tree")
	}
}

// unshippedFirstDialer dials like shardnet.Dialer, but its first
// connection sends its first job by hash alone, as a client that lost
// track of which config it shipped would.
type unshippedFirstDialer struct {
	shardnet.Dialer
	dials atomic.Int64
}

func (d *unshippedFirstDialer) Dial() (shard.Conn, error) {
	c, err := d.Dialer.Dial()
	if err != nil || d.dials.Add(1) > 1 {
		return c, err
	}
	return &unshippedFirstConn{Conn: c}, nil
}

type unshippedFirstConn struct {
	shard.Conn
	sent bool
}

func (c *unshippedFirstConn) Send(job *shard.Job) error {
	if c.sent {
		return c.Conn.Send(job)
	}
	c.sent = true
	stripped := *job
	stripped.Cfg = nil
	return c.Conn.Send(&stripped)
}

// TestUnshippedConfigIsReshippedOnRedial sends a real worker a
// hash-only job for a config its connection never shipped. The worker
// ends that session; the pool must requeue the job, re-ship the config
// inline on the redialed connection and deliver the bits an inline,
// in-process evaluation of the job gives.
func TestUnshippedConfigIsReshippedOnRedial(t *testing.T) {
	addr := startTCPWorker(t, nil)
	cfg := tinyConfig()
	cfg.Duration = 2 * units.Second
	ncfg := cfg.normalize()
	cfgJSON, err := json.Marshal(&ncfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := remycc.NewTree().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	job := &shard.Job{
		ID: 1, Version: shard.ProtocolVersion, Seed: 3, Replicas: ncfg.Replicas, UsageFor: 0,
		SlotLo: 0, SlotHi: ncfg.Replicas, Trees: [][]byte{tree}, Cfg: cfgJSON, CfgHash: shard.HashBytes(cfgJSON),
	}
	inline := *job
	want, err := EvalShardJob(&inline)
	if err != nil {
		t.Fatal(err)
	}

	d := &unshippedFirstDialer{Dialer: shardnet.Dialer{Addr: addr}}
	reg := telemetry.NewRegistry()
	pool := &shard.Pool{
		Transports: []shard.Transport{d},
		Fallback: func(job *shard.Job) (*shard.Result, error) {
			t.Error("fallback used; the redialed connection should answer")
			return EvalShardJob(job)
		},
		Timeout: time.Minute,
		Metrics: reg,
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	results, err := pool.Do([]*shard.Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if d.dials.Load() != 2 {
		t.Fatalf("%d dials, want the broken session replaced once", d.dials.Load())
	}
	for _, name := range []string{"shard_lane_requeues_total", "shard_lane_reconnects_total"} {
		if n := reg.Counter(name + `{lane="0:` + addr + `"}`).Value(); n != 1 {
			t.Fatalf("%s = %d, want 1", name, n)
		}
	}
	want.ID = job.ID
	if got, exp := resultBits(results[0]), resultBits(want); got != exp {
		t.Fatalf("re-shipped job answered\n%s\nwant the inline run's\n%s", got, exp)
	}
}

// resultBits renders a result's scores as IEEE-754 bits, with its
// fired sets and usage, for an exact comparison.
func resultBits(res *shard.Result) string {
	bits := make([]uint64, len(res.Scores))
	for i, s := range res.Scores {
		bits[i] = math.Float64bits(s)
	}
	return fmt.Sprintf("scores %x fired %x usage %v err %q", bits, res.Fired, res.Usage, res.Err)
}

// TestShardedTrainTCPWarmCacheRerun trains twice against the same
// worker: the second run is served largely from the worker's
// content-addressed slot cache and must still be byte-equal — cached
// entries are the stored bits of identical (config, draw, tree) slots,
// so equality holds by construction, and the coordinator's hit counter
// proves the cache actually served.
func TestShardedTrainTCPWarmCacheRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	reg := telemetry.NewRegistry()
	addr := startTCPWorker(t, &shardnet.Server{Eval: CachedShardEval(shardnet.NewCache(0)), Metrics: reg})

	cold := &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{addr}}
	if got := trainBytes(t, cold); !bytes.Equal(got, want) {
		t.Fatal("cold-cache TCP training changed the trained tree")
	}
	coldHits, coldTotal := cold.ShardCacheStats()
	if coldTotal == 0 {
		t.Fatal("no shard results counted; the TCP path did not run")
	}

	warm := &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{addr}}
	if got := trainBytes(t, warm); !bytes.Equal(got, want) {
		t.Fatal("warm-cache TCP training changed the trained tree")
	}
	warmHits, warmTotal := warm.ShardCacheStats()
	if warmHits == 0 {
		t.Fatal("warm rerun reported zero cache hits; the cache never served")
	}
	if warmHits != warmTotal {
		t.Logf("warm rerun: %d/%d results cached (cold run: %d/%d)", warmHits, warmTotal, coldHits, coldTotal)
	}
	if reg.Counter("shardnet_server_cache_hits_total").Value() == 0 {
		t.Fatalf("worker served %d jobs but counted no cache hits", reg.Counter("shardnet_server_jobs_total").Value())
	}
}

// TestSessionBufferReuseMatchesEvalShardJob serves a run of jobs over
// one worker connection, whose session reads every frame into the same
// buffer and decodes each job in place. The jobs differ in size,
// config (inline, by hash, and inline again after another config) and
// replica list, and the run is sent twice, so the second pass replays
// from the cache. Every result, and every replay and slot entry the
// worker's cache holds afterwards, must equal what EvalShardJob
// computes from the test's own copy of the job: a job byte kept past
// its job would be overwritten by the next frame.
func TestSessionBufferReuseMatchesEvalShardJob(t *testing.T) {
	cache := shardnet.NewCache(0)
	cached := CachedShardEval(cache)
	// Configs decode through a process-wide memo keyed by hash, so the
	// blob a job arrives with is checked here.
	eval := func(job *shard.Job) (*shard.Result, error) {
		if got := shard.HashBytes(job.Cfg); got != job.CfgHash {
			return nil, fmt.Errorf("job %d: config hashes to %s, want %s", job.ID, got, job.CfgHash)
		}
		return cached(job)
	}
	addr := startTCPWorker(t, &shardnet.Server{Eval: eval})
	conn, err := (&shardnet.Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var cfgs [2][]byte
	for i, dur := range []units.Duration{2 * units.Second, units.Second} {
		cfg := tinyConfig()
		cfg.Duration = dur
		ncfg := cfg.normalize()
		if cfgs[i], err = json.Marshal(&ncfg); err != nil {
			t.Fatal(err)
		}
	}
	var trees [][]byte
	for _, tree := range []*remycc.Tree{
		remycc.NewTree(),
		remycc.NewTree().WithAction(0, remycc.Action{WindowMult: 1.05, WindowIncr: 2, Intersend: 0.001}),
		remycc.NewTree().WithAction(0, remycc.Action{WindowMult: 0.9, WindowIncr: 1, Intersend: 0.002}),
		remycc.NewTree().WithAction(0, remycc.Action{WindowMult: 1, WindowIncr: 4, Intersend: 0.0005}),
	} {
		enc, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, enc)
	}
	job := func(id uint64, cfg []byte, nTrees int, reps []int, usageFor int) *shard.Job {
		nr := 2
		if len(reps) > 0 {
			nr = len(reps)
		}
		return &shard.Job{
			ID: id, Version: shard.ProtocolVersion, Seed: 3, Gen: 1, Replicas: 2, Reps: reps, UsageFor: usageFor,
			SlotLo: 0, SlotHi: nTrees * nr, Trees: trees[:nTrees], Cfg: cfg, CfgHash: shard.HashBytes(cfg),
		}
	}
	jobs := []*shard.Job{
		job(1, cfgs[0], 2, nil, -1),
		job(2, cfgs[0], 4, nil, 1),
		job(3, cfgs[1], 1, []int{1}, 0),
		job(4, cfgs[0], 3, []int{0}, -1),
		job(5, cfgs[0], 4, []int{1}, 3),
		job(6, cfgs[1], 4, nil, -1),
	}
	serveTwiceMatchesEvalShardJob(t, cache, conn, jobs)
}

// TestWorkerReplayAllocatesOnlyTheResultHeader serves a run of jobs
// once, filling the worker's replay tier, and then times round trips of
// the same jobs over the same connection, each received into one reused
// Result. The worker decodes every job into its session's Job, keys it
// by the bytes it received and writes the stored result back as it is,
// and the client allocates nothing, so a replayed job may allocate at
// most the Result header the replay hands the session.
func TestWorkerReplayAllocatesOnlyTheResultHeader(t *testing.T) {
	cache := shardnet.NewCache(0)
	// No heartbeat falls in a replay, so none is encoded or decoded.
	addr := startTCPWorker(t, &shardnet.Server{Eval: CachedShardEval(cache), Heartbeat: time.Hour})
	conn, err := (&shardnet.Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cfg := tinyConfig()
	ncfg := cfg.normalize()
	cfgJSON, err := json.Marshal(&ncfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := remycc.NewTree().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var trees [][]byte
	for _, a := range neighbors(remycc.NewTree().Action(0)) {
		trees = append(trees, remycc.AppendWithAction(nil, base, 0, a))
	}
	var jobs []*shard.Job
	for i, reps := range [][]int{nil, {1}, {0}} {
		nr := ncfg.Replicas
		if len(reps) > 0 {
			nr = len(reps)
		}
		jobs = append(jobs, &shard.Job{
			ID: uint64(i + 1), Version: shard.ProtocolVersion, Seed: 3, Gen: 1, Replicas: ncfg.Replicas, Reps: reps,
			UsageFor: -1, SlotLo: 0, SlotHi: len(trees) * nr, Trees: trees, Cfg: cfgJSON, CfgHash: shard.HashBytes(cfgJSON),
		})
	}
	var res shard.Result
	round := func() {
		for _, job := range jobs {
			if err := conn.Send(job); err != nil {
				t.Fatal(err)
			}
			if err := conn.Recv(time.Minute, &res); err != nil || res.ID != job.ID || res.Err != "" {
				t.Fatalf("job %d: %+v, %v", job.ID, res, err)
			}
		}
	}
	round() // evaluates, and fills the replay tier
	round()
	if !res.Cached {
		t.Fatal("the second round was not served from the replay tier")
	}
	if raceEnabled {
		t.Skip("the replay key's hasher comes from a sync.Pool, which drops items at random under the race detector")
	}
	allocs := testing.AllocsPerRun(20, round) / float64(len(jobs))
	t.Logf("%v allocations per replayed job", allocs)
	if allocs > 1 {
		t.Fatalf("a replayed job allocates %v times, want at most 1 (the Result header)", allocs)
	}
}

// TestSessionTreeBufferReuseMatchesEvalShardJob is the same check for
// the buffer a worker session rebuilds edit-coded trees into: jobs of
// hill-climb neighbours of trees of one, two and three whiskers, and a
// job mixing them, arrive largest first, so every later job's trees
// are rebuilt over the bytes of an earlier job's. A tree byte kept past
// its job would show as a wrong result or cache entry.
func TestSessionTreeBufferReuseMatchesEvalShardJob(t *testing.T) {
	cache := shardnet.NewCache(0)
	cached := CachedShardEval(cache)
	var mu sync.Mutex
	starts := map[*byte]int{} // where each job's second tree began
	eval := func(job *shard.Job) (*shard.Result, error) {
		if len(job.Trees) > 1 && len(job.Trees[1]) > 0 {
			mu.Lock()
			starts[&job.Trees[1][0]]++
			mu.Unlock()
		}
		return cached(job)
	}
	addr := startTCPWorker(t, &shardnet.Server{Eval: eval})
	conn, err := (&shardnet.Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cfg := tinyConfig()
	cfg.Duration = units.Second
	ncfg := cfg.normalize()
	cfgJSON, err := json.Marshal(&ncfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three trees, each the last split once more at its first
	// whisker's midpoint.
	bases := []*remycc.Tree{remycc.NewTree()}
	for len(bases) < 3 {
		last := bases[len(bases)-1]
		dom := last.Whiskers[0].Domain
		var at remycc.Vector
		for d := range at {
			at[d] = (dom.Lo[d] + dom.Hi[d]) / 2
		}
		next, ok := last.Split(0, at, []remycc.Signal{remycc.RecEWMA})
		if !ok {
			t.Fatal("split failed")
		}
		bases = append(bases, next)
	}
	neighbours := func(base *remycc.Tree, wi, n int) [][]byte {
		enc, err := base.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, a := range neighbors(base.Action(wi))[:n] {
			out = append(out, remycc.AppendWithAction(nil, enc, wi, a))
		}
		return out
	}
	job := func(id uint64, trees [][]byte, reps []int, usageFor int) *shard.Job {
		nr := ncfg.Replicas
		if len(reps) > 0 {
			nr = len(reps)
		}
		return &shard.Job{
			ID: id, Version: shard.ProtocolVersion, Seed: 5, Gen: 2, Replicas: ncfg.Replicas, Reps: reps, UsageFor: usageFor,
			SlotLo: 0, SlotHi: len(trees) * nr, Trees: trees, Cfg: cfgJSON, CfgHash: shard.HashBytes(cfgJSON),
		}
	}
	mixed := [][]byte{neighbours(bases[1], 1, 1)[0], neighbours(bases[0], 0, 1)[0], neighbours(bases[2], 2, 1)[0]}
	jobs := []*shard.Job{
		job(1, neighbours(bases[2], 1, 4), nil, -1),
		job(2, neighbours(bases[0], 0, 3), nil, 2),
		job(3, mixed, []int{1}, -1),
		job(4, neighbours(bases[1], 0, 4), []int{0}, 1),
		job(5, neighbours(bases[2], 2, 2), nil, -1),
	}
	serveTwiceMatchesEvalShardJob(t, cache, conn, jobs)
	reused := false
	for _, n := range starts {
		reused = reused || n > 1
	}
	if !reused {
		t.Fatal("no two jobs' trees were rebuilt at the same place; the session did not reuse its tree buffer")
	}
}

// serveTwiceMatchesEvalShardJob serves jobs over conn twice, the
// second pass replayed from the worker's cache, and requires every
// result, and every replay and slot entry cache holds afterwards, to
// equal what EvalShardJob computes from the job.
func serveTwiceMatchesEvalShardJob(t *testing.T, cache *shardnet.Cache, conn shard.Conn, jobs []*shard.Job) {
	t.Helper()
	var err error
	want := make([]*shard.Result, len(jobs))
	for i, j := range jobs {
		own := *j
		if want[i], err = EvalShardJob(&own); err != nil {
			t.Fatal(err)
		}
	}
	for pass := range 2 {
		for i, j := range jobs {
			res, err := shard.RoundTrip(conn, j, time.Minute)
			if err != nil {
				t.Fatalf("pass %d, job %d: %v", pass, j.ID, err)
			}
			if got, exp := resultBits(res), resultBits(want[i]); got != exp {
				t.Fatalf("pass %d, job %d answered\n%s\nwant EvalShardJob's\n%s", pass, j.ID, got, exp)
			}
			if pass == 1 && !res.Cached {
				t.Fatalf("job %d was not replayed from the cache", j.ID)
			}
		}
	}
	for i, j := range jobs {
		b, ok := cache.Get(jobKey(j))
		if !ok {
			t.Fatalf("job %d has no replay entry", j.ID)
		}
		stored, err := shard.DecodeResult(b)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := resultBits(stored), resultBits(want[i]); got != exp {
			t.Fatalf("job %d's replay entry holds\n%s\nwant\n%s", j.ID, got, exp)
		}
		w, err := decodeShardJob(j)
		if err != nil {
			t.Fatal(err)
		}
		words := len(want[i].Fired) / len(want[i].Scores)
		for s := w.lo; s < w.hi; s++ {
			ti, k := w.slot(s)
			b, ok := cache.Get(slotKey(w.cfgHash, w.draws[k], w.enc[ti]))
			if !ok {
				t.Fatalf("job %d, slot %d has no slot entry", j.ID, s)
			}
			score, u, fired, err := decodeSlotEntry(b)
			if err != nil {
				t.Fatal(err)
			}
			if u != nil {
				fired = make([]uint64, words)
				markFired(fired, u.Count)
			}
			if math.Float64bits(score) != math.Float64bits(want[i].Scores[s]) ||
				fmt.Sprint(fired) != fmt.Sprint(want[i].Fired[s*words:(s+1)*words]) {
				t.Fatalf("job %d, slot %d: entry holds score %v fired %x, want %v %x",
					j.ID, s, score, fired, want[i].Scores[s], want[i].Fired[s*words:(s+1)*words])
			}
		}
	}
}

// TestTrainFailsAgainstWorkerOfOtherVersion points a trainer at a
// worker of the previous protocol version, which refuses the hello its
// first job carries. Train must panic at its first batch, naming both
// versions, with no result delivered and no job evaluated in-process.
func TestTrainFailsAgainstWorkerOfOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	old := shard.ProtocolVersion - 1
	var refusal bytes.Buffer
	if err := shard.WriteFrame(&refusal, map[string]any{
		"magic": shardnet.Magic, "version": old, "ok": false,
		"reason": fmt.Sprintf("protocol version %d, worker speaks %d", shard.ProtocolVersion, old),
	}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			var hello map[string]any
			shard.ReadFrame(bufio.NewReader(nc), &hello)
			nc.Write(refusal.Bytes())
			nc.Close()
		}
	}()
	reg := telemetry.NewRegistry()
	tr := &Trainer{Cfg: tinyConfig(), Seed: 1, Remotes: []string{ln.Addr().String()}, Metrics: reg}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		tr.Train(diffBudget())
		return ""
	}()
	for _, v := range []int{old, shard.ProtocolVersion} {
		if !strings.Contains(msg, fmt.Sprintf("v%d", v)) {
			t.Fatalf("Train against a v%d worker panicked with %q, want both versions named", old, msg)
		}
	}
	if _, results := tr.ShardCacheStats(); results != 0 {
		t.Fatalf("%d shard results before the refusal, want the first batch to fail", results)
	}
	if n := reg.Counter(`shard_lane_fallbacks_total{lane="0:` + ln.Addr().String() + `"}`).Value(); n != 0 {
		t.Fatalf("%d jobs fell back in-process", n)
	}
}
