package remy

// The one evaluation path. Both ways of training — in process, and
// over remyshardd workers reached by TCP — score candidate trees by
// calling evalSlots on a contiguous range of the batch's
// (tree x replica) slot space: the trainer calls it directly over the
// whole batch, a worker calls it on the range its job decoded to. The
// memo lookup, the usage-bearing serve rule, the simulation fan-out
// and the cache write-back are therefore written once, and the
// execution strategies agree by construction rather than by test.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
)

// slotWork is slots [lo, hi) of one evaluation batch, where slot s is
// batch tree s/Replicas run on draws[s%Replicas].
type slotWork struct {
	// cfg is the normalized training config and cfgHash the content
	// hash of its shard encoding — the same address on coordinator and
	// worker, so both key identical slots identically.
	cfg     *Config
	cfgHash shard.Hash
	// draws are the generation's common scenario draws (drawsFor).
	draws []draw
	// trees[i] is batch tree treeLo+i and enc[i] its stable binary
	// encoding, the tree's part of the slot key; enc is read only when
	// a cache is consulted.
	treeLo int
	trees  []*remycc.Tree
	enc    [][]byte
	lo, hi int
	// usageFor is the batch tree whose per-replica whisker usage the
	// caller wants, -1 for none.
	usageFor int
	// workers bounds concurrent simulations (0 = NumCPU).
	workers int
}

// evalSlots scores w's slots and returns them in slot order, with one
// usage frame per slot of the usageFor tree in ascending replica
// order. With a cache, each slot is looked up first and only the
// misses are simulated; fresh results are stored, and Result.Cached
// reports that nothing was simulated. A slot's score is a pure
// function of its key, so the cache changes where bits come from,
// never the bits.
func evalSlots(w slotWork, cache *shardnet.Cache) *shard.Result {
	n, replicas := w.hi-w.lo, w.cfg.Replicas
	res := &shard.Result{Scores: make([]float64, n)}
	usages := make([]*remycc.UsageStats, n)
	miss := make([]int, 0, n)
	var keys []shardnet.Key
	if cache != nil {
		keys = make([]shardnet.Key, n)
	}
	for i := 0; i < n; i++ {
		if cache != nil {
			slot := w.lo + i
			ti, k := slot/replicas, slot%replicas
			keys[i] = slotKey(w.cfgHash, w.draws[k], w.enc[ti-w.treeLo])
			if entry, ok := cache.Get(keys[i]); ok {
				score, u, err := decodeSlotEntry(entry)
				// A usage query can only be served by an entry that
				// stored usage; anything else re-evaluates.
				if err == nil && (ti != w.usageFor || u != nil) {
					res.Scores[i] = score
					if ti == w.usageFor {
						usages[i] = u
					}
					continue
				}
			}
		}
		miss = append(miss, i)
	}
	res.Cached = cache != nil && len(miss) == 0

	parallelFor(len(miss), w.workers, func() func(int) {
		// Score-only slots discard their usage, so each worker
		// accumulates them into one scratch buffer (evalOne resets it).
		var scratch remycc.UsageStats
		return func(j int) {
			i := miss[j]
			slot := w.lo + i
			ti, k := slot/replicas, slot%replicas
			u := &scratch
			if ti == w.usageFor {
				u = &remycc.UsageStats{}
				usages[i] = u
			}
			res.Scores[i] = w.cfg.evalOne(w.trees[ti-w.treeLo], w.draws[k], u)
		}
	})
	if cache != nil {
		for _, i := range miss {
			if usages[i] != nil {
				// Replace upgrades a score-only entry to a usage-bearing
				// one (identical score bits by purity), so the next
				// usage query for this slot is a full hit.
				cache.Replace(keys[i], encodeSlotEntry(res.Scores[i], usages[i]))
			} else {
				cache.Put(keys[i], encodeSlotEntry(res.Scores[i], nil))
			}
		}
	}
	for i, u := range usages {
		if u != nil {
			res.Usage = append(res.Usage, shard.UsageFrame{K: (w.lo + i) % replicas, Count: u.Count, Sum: u.Sum})
		}
	}
	return res
}

// parallelFor runs body(0..n-1) across at most workers goroutines
// (0 = NumCPU), returning when all calls complete. Each goroutine
// obtains its own body from newBody, which is where per-worker scratch
// state lives. Iterations must be independent.
func parallelFor(n, workers int, newBody func() func(int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			body := newBody()
			for i := 0; i < n; i++ {
				body(i)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			body := newBody()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}
