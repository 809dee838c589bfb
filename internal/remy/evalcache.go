package remy

// In-process memoization for the evaluation plane: the trainer's slot
// cache (the same content address the shard workers use, so the
// redundancy inherent in hill-climbing — a move's neighbor set overlaps
// the previous move's — is served from memory instead of the
// simulator; Train refreshes whisker usage only after a pass that moved
// the tree and only where a later pass or the split reads it, see
// Train), and the two small derive-once
// memos evaluation leans on. Entries are byte-identical to fresh
// evaluation by purity (the differential tests in memodiff_test.go hold
// cached and uncached training byte-equal), so a cache changes where
// scores come from, never their bits.

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
)

// fifoMemo is a bounded derive-once map with FIFO eviction, safe for
// concurrent use. Values must be immutable once stored: every caller
// of a key shares one value.
type fifoMemo[K comparable, V any] struct {
	max int

	mu    sync.Mutex
	m     map[K]V
	order []K
}

// get returns the value stored under k.
func (c *fifoMemo[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

// add stores v under k, evicting the oldest entry when full, and
// returns the value now stored — an earlier racing add's, if any.
func (c *fifoMemo[K, V]) add(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stored, ok := c.m[k]; ok {
		return stored
	}
	if c.m == nil {
		c.m = make(map[K]V)
	}
	for len(c.order) >= c.max {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[k] = v
	c.order = append(c.order, k)
	return v
}

// drawMemoKey addresses one generation's scenario draws.
type drawMemoKey struct {
	cfgHash shard.Hash
	seed    uint64
	gen     int
}

// drawMemo is the process-wide derive-once cache of generation draws:
// generationDraws is pure in (config, seed, gen), and a sharded
// generation evaluates many jobs. It is keyed by the config's content
// hash, so the in-process trainer, its fallback lanes, and a daemon
// serving several trainings all share one derivation per generation.
// One run touches one config and a handful of recent generations, so
// the bound only matters for a daemon serving many coordinators.
var drawMemo = fifoMemo[drawMemoKey, []draw]{max: 32}

// drawMemoHits/drawMemoMisses count memo consultations process-wide;
// atomics because concurrent lanes race drawsFor, and the telemetry
// journal reads them from the Train goroutine.
var drawMemoHits, drawMemoMisses atomic.Int64

// DrawMemoStats reports the process-wide draw-memo hit and miss counts
// (a miss is one full generationDraws derivation). The trainer's
// telemetry journal records per-generation deltas.
func DrawMemoStats() (hits, misses int64) {
	return drawMemoHits.Load(), drawMemoMisses.Load()
}

// drawsFor returns one generation's scenario draws, derived once per
// (config, seed, generation) and shared thereafter. The caller must
// treat the slice and its draws as immutable (scenario runs split the
// seed stream without advancing it, so concurrent evaluations may
// share them).
func drawsFor(cfgHash shard.Hash, seed uint64, gen int, cfg *Config) []draw {
	key := drawMemoKey{cfgHash: cfgHash, seed: seed, gen: gen}
	if draws, ok := drawMemo.get(key); ok {
		drawMemoHits.Add(1)
		return draws
	}
	drawMemoMisses.Add(1)
	return drawMemo.add(key, cfg.generationDraws(seed, gen))
}

// cfgID returns the normalized training config's shard encoding and
// its content hash — the address every slot key and draw-memo key
// starts from, identical on coordinator and workers. Train pins both
// for the duration of one search; a bare evaluate call outside Train
// (tests) recomputes them, which is microseconds against a slot's
// milliseconds of simulation.
func (t *Trainer) cfgID(cfg *Config) ([]byte, shard.Hash) {
	if t.cfgJSON != nil {
		return t.cfgJSON, t.cfgHash
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("remy: training config not serializable: %v", err))
	}
	return b, shard.HashBytes(b)
}

// localCache resolves the in-process slot cache for an evaluation
// batch: nil when disabled, the caller-supplied EvalCache when set,
// and otherwise a default-sized cache built on first use that lives
// for the Trainer's lifetime — so repeated Train calls on one Trainer
// (warm reruns, sweeps over budgets) keep their entries.
func (t *Trainer) localCache() *shardnet.Cache {
	if t.DisableEvalCache {
		return nil
	}
	if t.EvalCache == nil {
		t.EvalCache = shardnet.NewCache(0)
	}
	return t.EvalCache
}

// LocalCacheStats snapshots the in-process evaluation cache counters
// (zero when the cache is disabled or was never touched). cmd/
// remytrain surfaces the hit rate after training;
// TestEvalCacheHitRateFloor asserts a floor on it.
func (t *Trainer) LocalCacheStats() shardnet.CacheStats {
	if t.DisableEvalCache || t.EvalCache == nil {
		return shardnet.CacheStats{}
	}
	return t.EvalCache.Stats()
}
