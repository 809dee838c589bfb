package remy

// Differential tests for the distributed (TCP) shard fabric: training
// over shardnet workers — loopback servers hosted inside this test
// binary, no separate daemon build — must produce a tree BYTE-EQUAL to
// the in-process trainer, through reconnects, a worker machine lost
// for good mid-generation, and warm result caches.

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"learnability/internal/remy/shardnet"
)

// startTCPWorker serves real shard jobs on a loopback listener and
// returns its address and server (for stats). The heartbeat is fast so
// tests with per-job timeouts exercise the liveness path.
func startTCPWorker(t *testing.T, srv *shardnet.Server) (string, *shardnet.Server) {
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
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return ln.Addr().String(), srv
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
	a, _ := startTCPWorker(t, nil)
	b, _ := startTCPWorker(t, nil)
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

// limitListener grants at most n Accepts, then closes for good —
// simulating a worker machine that disappears and never comes back,
// so redials fail and the pool must requeue elsewhere.
type limitListener struct {
	net.Listener
	left atomic.Int64
}

func (l *limitListener) Accept() (net.Conn, error) {
	if l.left.Add(-1) < 0 {
		l.Listener.Close()
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
	t.Cleanup(func() { ln.Close() })
	lim := &limitListener{Listener: ln}
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

	healthy, _ := startTCPWorker(t, nil)
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

// TestShardedTrainConfigFlushedDuringTraining keeps flushing the
// worker's config store while training runs, so hash-only jobs keep
// missing and the pool's NeedCfg refetch path fires throughout the
// run — mid-generation included. The trained tree must still be
// byte-equal: a refetch re-ships bits, never changes them.
func TestShardedTrainConfigFlushedDuringTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	addr, srv := startTCPWorker(t, nil)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				srv.FlushConfigs()
			}
		}
	}()

	tr := &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{addr}, ShardTimeout: time.Minute}
	if got := trainBytes(t, tr); !bytes.Equal(got, want) {
		t.Fatal("config-store flushes during training changed the trained tree")
	}
	if st := srv.Stats(); st.Jobs == 0 {
		t.Fatal("no jobs served; the flush test never exercised the worker")
	}
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
	addr, srv := startTCPWorker(t, &shardnet.Server{Eval: CachedShardEval(shardnet.NewCache(0))})

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
	if st := srv.Stats(); st.CacheHits == 0 {
		t.Fatalf("worker served %d jobs but reported no cache hits", st.Jobs)
	}
}
