package remy

// Differential tests for the memoized evaluation plane: training with
// the in-process slot cache (and the draw memo, and disk-persistent
// worker caches) must be BYTE-EQUAL to uncached training wherever a
// slot is evaluated — in process, on TCP loopback workers, and on the
// shard pool's in-process fallback — while the cache counters prove the
// memoization actually served. These extend the sharded differential guarantees to caching:
// a cache may change where bits come from, never the bits.

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
)

// uncachedBytes is the memoization-free reference trainer.
func uncachedBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	return trainBytes(t, &Trainer{Cfg: tinyConfig(), Seed: seed, Workers: 4, DisableEvalCache: true})
}

// TestMemoizedTrainBitEqualInProcess is the tentpole guarantee for the
// local cache: default (cached) training equals uncached training
// byte-for-byte, the cache reports hits on a cold run (neighbor
// overlap across hill-climb moves), and a warm rerun on the same
// Trainer — whose cache outlives Train — is served without a single
// new miss.
func TestMemoizedTrainBitEqualInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := uncachedBytes(t, seed)

	tr := &Trainer{Cfg: tinyConfig(), Seed: seed, Workers: 4}
	if got := trainBytes(t, tr); !bytes.Equal(got, want) {
		t.Fatal("cached training changed the trained tree")
	}
	cold := tr.LocalCacheStats()
	if cold.Hits == 0 {
		t.Fatal("cold training reported zero cache hits; the memoization never served")
	}

	if got := trainBytes(t, tr); !bytes.Equal(got, want) {
		t.Fatal("warm rerun changed the trained tree")
	}
	warm := tr.LocalCacheStats()
	if warm.Misses != cold.Misses {
		t.Fatalf("warm rerun simulated %d new slots; every slot should hit", warm.Misses-cold.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Fatal("warm rerun reported no additional hits")
	}
}

// TestMemoizedTrainBitEqualLocalLanes covers the shard pool's
// in-process fallback, which shares the trainer's slot cache via
// CachedShardEval: the only worker serves one job and vanishes, so
// its lane dies and the rest of the run evaluates in process. Cached
// and uncached runs must both equal the uncached in-process reference.
func TestMemoizedTrainBitEqualLocalLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := uncachedBytes(t, seed)

	cached := &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{startVanishingWorker(t, 1, 1)}}
	if got := trainBytes(t, cached); !bytes.Equal(got, want) {
		t.Fatal("cached fallback training changed the trained tree")
	}
	if st := cached.LocalCacheStats(); st.Hits == 0 {
		t.Fatal("the fallback reported zero cache hits; it is not wired to the trainer's cache")
	}

	uncached := &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{startVanishingWorker(t, 1, 1)}, DisableEvalCache: true}
	if got := trainBytes(t, uncached); !bytes.Equal(got, want) {
		t.Fatal("uncached fallback training changed the trained tree")
	}
}

// TestShardedTrainDiskCacheDaemonRestart is the warm-restart
// guarantee: a TCP worker spills its cache to a directory, a brand-new
// worker (fresh process state, same directory) serves a rerun largely
// from disk, and the trained tree stays byte-equal. This is the
// remyshardd -cache-dir contract, exercised with in-test servers.
func TestShardedTrainDiskCacheDaemonRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := uncachedBytes(t, seed)
	dir := t.TempDir()

	diskCache := func() *shardnet.Cache {
		c, err := shardnet.NewDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	addr := startTCPWorker(t, &shardnet.Server{Eval: CachedShardEval(diskCache())})
	cold := &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{addr}}
	if got := trainBytes(t, cold); !bytes.Equal(got, want) {
		t.Fatal("cold disk-cache training changed the trained tree")
	}

	// "Restart": a new server with an empty memory tier over the same
	// directory, on a new port.
	restarted := diskCache()
	addr2 := startTCPWorker(t, &shardnet.Server{Eval: CachedShardEval(restarted)})
	warm := &Trainer{Cfg: tinyConfig(), Seed: seed, Remotes: []string{addr2}}
	if got := trainBytes(t, warm); !bytes.Equal(got, want) {
		t.Fatal("warm-restart training changed the trained tree")
	}
	st := restarted.Stats()
	if st.DiskHits == 0 {
		t.Fatalf("restarted worker stats %+v: no disk hits; persistence never served", st)
	}
	if st.Rejected != 0 {
		t.Fatalf("restarted worker rejected %d entries from its own spill", st.Rejected)
	}
}

// TestConcurrentTrainersOneCacheDir runs two trainers at once, each
// with its own disk-backed local cache over one shared directory — two
// remytrain processes pointed at the same -eval-cache-dir. Both must
// produce the uncached reference bits; the write path's temp-file +
// atomic-rename scheme is what makes the sharing safe, and the -race
// build of this test enforces it.
func TestConcurrentTrainersOneCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := uncachedBytes(t, seed)
	dir := t.TempDir()

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	for i := range results {
		cache, err := shardnet.NewDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := &Trainer{Cfg: tinyConfig(), Seed: seed, Workers: 2, EvalCache: cache}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tree := tr.Train(diffBudget())
			data, err := tree.MarshalBinary()
			if err != nil {
				t.Errorf("trainer %d: encode: %v", i, err)
				return
			}
			results[i] = data
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("concurrent trainer %d over a shared cache dir changed the trained tree", i)
		}
	}
}

// TestEvalCacheServesUsageRefresh pins the satellite guarantee that a
// usage query against score-only entries re-evaluates (never nil or
// stale usage), and that the re-evaluation upgrades the entries so the
// *next* usage query of the same tree is served without a single
// miss.
func TestEvalCacheServesUsageRefresh(t *testing.T) {
	base := tinyConfig()
	cfg := base.normalize()
	tree := remycc.NewTree()

	ref := &Trainer{Cfg: tinyConfig(), Seed: 3, DisableEvalCache: true}
	wantScores, wantUsage := ref.evaluateBatch(&cfg, tree, 0, nil, 0, 0, nil)

	tr := &Trainer{Cfg: tinyConfig(), Seed: 3}
	// Score-only pass: fills the cache with usage-less entries.
	scoreOnly, _ := tr.evaluateBatch(&cfg, tree, 0, nil, 0, -1, nil)
	if !reflect.DeepEqual(scoreOnly, wantScores) {
		t.Fatalf("score-only pass scores %v, want %v", scoreOnly, wantScores)
	}

	// Usage query against score-only entries: must re-simulate and
	// return full usage, not nil and not zeros.
	gotScores, gotUsage := tr.evaluateBatch(&cfg, tree, 0, nil, 0, 0, nil)
	if gotUsage == nil {
		t.Fatal("usage query served nil usage from score-only entries")
	}
	if !reflect.DeepEqual(gotScores, wantScores) || !reflect.DeepEqual(gotUsage, wantUsage) {
		t.Fatalf("usage query over a warm score-only cache diverged:\ngot  %v %+v\nwant %v %+v",
			gotScores, gotUsage, wantScores, wantUsage)
	}

	// The re-evaluation upgraded the entries (Replace): a second usage
	// query must be a pure cache read.
	before := tr.LocalCacheStats()
	againScores, againUsage := tr.evaluateBatch(&cfg, tree, 0, nil, 0, 0, nil)
	after := tr.LocalCacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("second usage query missed %d times; upgraded entries should serve it", after.Misses-before.Misses)
	}
	if !reflect.DeepEqual(againScores, wantScores) || !reflect.DeepEqual(againUsage, wantUsage) {
		t.Fatal("cache-served usage query diverged from the simulated reference")
	}
}

// TestDrawMemoDerivesOnce checks the derive-once draw memo: identical
// (config hash, seed, gen) queries share one slice, the memoized draws
// are exactly what generationDraws derives, and distinct generations
// or configs get distinct draws.
func TestDrawMemoDerivesOnce(t *testing.T) {
	base := tinyConfig()
	cfg := base.normalize()
	h1 := shard.HashBytes([]byte("cfg-one"))
	h2 := shard.HashBytes([]byte("cfg-two"))

	a := drawsFor(h1, 11, 2, &cfg)
	b := drawsFor(h1, 11, 2, &cfg)
	if &a[0] != &b[0] {
		t.Fatal("repeated drawsFor re-derived instead of sharing the memoized slice")
	}
	if want := cfg.generationDraws(11, 2); !reflect.DeepEqual(a, want) {
		t.Fatalf("memoized draws %+v differ from generationDraws %+v", a, want)
	}
	if c := drawsFor(h1, 11, 3, &cfg); &c[0] == &a[0] {
		t.Fatal("different generation shared the same draws")
	}
	if c := drawsFor(h2, 11, 2, &cfg); &c[0] == &a[0] {
		t.Fatal("different config hash shared the same draws")
	}
}

// TestEvalCacheHitRateFloor asserts a floor on the cold-run hit rate
// of a standard training: the hill-climb's neighbor overlap must make
// a measurable fraction of slots free. A count, not a timing: the search is deterministic for a seed.
func TestEvalCacheHitRateFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tr := &Trainer{Cfg: tinyConfig(), Seed: 1, Workers: 4}
	tr.Train(Budget{Generations: 2, OptPasses: 2, MovesPerWhisker: 4})
	st := tr.LocalCacheStats()
	total := st.Hits + st.Misses
	if total == 0 {
		t.Fatal("cache saw no traffic")
	}
	rate := float64(st.Hits) / float64(total)
	t.Logf("cold hit rate: %d/%d = %.1f%%", st.Hits, total, 100*rate)
	if rate < 0.05 {
		t.Fatalf("cold hit rate %.1f%% below the 5%% floor", 100*rate)
	}
}
