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
// batch tree s/n run on draws[reps[s%n]], n = len(reps) — or, with
// reps empty, tree s/Replicas on draws[s%Replicas].
type slotWork struct {
	// cfg is the normalized training config and cfgHash the content
	// hash of its shard encoding — the same address on coordinator and
	// worker, so both key identical slots identically.
	cfg     *Config
	cfgHash shard.Hash
	// draws are the generation's common scenario draws (drawsFor).
	draws []draw
	// reps lists the replicas the batch runs on, ascending; empty
	// means all of them.
	reps []int
	// trees[i] is batch tree treeLo+i and enc[i] its stable binary
	// encoding, the tree's part of the slot key; enc is read only when
	// a cache is consulted. A nil trees[i] is a hill-climb candidate
	// not built yet: base with whisker wi's action set to acts[i],
	// which evalSlots builds only when a slot of it must be simulated.
	treeLo int
	trees  []*remycc.Tree
	enc    [][]byte
	base   *remycc.Tree
	wi     int
	acts   []remycc.Action
	lo, hi int
	// usageFor is the batch tree whose per-replica whisker usage the
	// caller wants, -1 for none.
	usageFor int
	// workers bounds concurrent simulations (0 = NumCPU).
	workers int
}

// nReps is the number of replicas each tree runs on.
func (w *slotWork) nReps() int {
	if len(w.reps) == 0 {
		return w.cfg.Replicas
	}
	return len(w.reps)
}

// slot maps slot s to its batch tree and replica.
func (w *slotWork) slot(s int) (ti, k int) {
	n := w.nReps()
	if len(w.reps) == 0 {
		return s / n, s % n
	}
	return s / n, w.reps[s%n]
}

// treeLen is the whisker count of w.trees[i], built or not: a
// candidate has its base's whiskers.
func (w *slotWork) treeLen(i int) int {
	if w.trees[i] == nil {
		return w.base.Len()
	}
	return w.trees[i].Len()
}

// tree returns w.trees[i], building it first if it is a candidate not
// built yet.
func (w *slotWork) tree(i int) *remycc.Tree {
	if w.trees[i] == nil {
		w.trees[i] = w.base.WithAction(w.wi, w.acts[w.treeLo+i])
	}
	return w.trees[i]
}

// firedWords is the length of a fired set over n whiskers: one word
// per 64.
func firedWords(n int) int { return (n + 63) / 64 }

// words is the per-slot fired-set length of a batch or job: that of
// its largest tree.
func (w *slotWork) words() int {
	n := 0
	for i := range w.trees {
		n = max(n, w.treeLen(i))
	}
	return firedWords(n)
}

// markFired sets bit i of fired for every whisker i with a nonzero
// count.
func markFired(fired []uint64, count []int64) {
	for i, c := range count {
		if c != 0 {
			fired[i/64] |= 1 << (i % 64)
		}
	}
}

// evalSlots scores w's slots and returns them in slot order, with each
// slot's fired set and one usage frame per slot of the usageFor tree
// in ascending replica order. With a cache, each slot is looked up
// first and only the misses are simulated; fresh results are stored,
// and Result.Cached reports that nothing was simulated. A slot's score
// and fired set are pure functions of its key, so the cache changes
// where bits come from, never the bits. A candidate tree is built only
// when one of its slots misses.
func evalSlots(w slotWork, cache *shardnet.Cache) *shard.Result {
	n := w.hi - w.lo
	words := w.words()
	res := &shard.Result{Scores: make([]float64, n), Fired: make([]uint64, n*words)}
	usages := make([]*remycc.UsageStats, n)
	miss := make([]int, 0, n)
	var keys []shardnet.Key
	// stale marks misses whose lookup found an entry this build cannot
	// serve (one written by an older format, say): Put keeps an
	// existing entry, so those are written with Replace.
	var stale []bool
	if cache != nil {
		keys = make([]shardnet.Key, n)
	}
	for i := 0; i < n; i++ {
		if cache != nil {
			ti, k := w.slot(w.lo + i)
			keys[i] = slotKey(w.cfgHash, w.draws[k], w.enc[ti-w.treeLo])
			if entry, ok := cache.Get(keys[i]); ok {
				score, u, fired, err := decodeSlotEntry(entry)
				if err != nil || !entryFits(w.treeLen(ti-w.treeLo), u, fired) {
					if stale == nil {
						stale = make([]bool, n)
					}
					stale[i] = true
				} else if ti != w.usageFor || u != nil {
					// A usage query can only be served by an entry
					// that stored usage; anything else re-evaluates.
					res.Scores[i] = score
					if u != nil {
						markFired(res.Fired[i*words:], u.Count)
					} else {
						copy(res.Fired[i*words:], fired)
					}
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
	for _, i := range miss {
		ti, _ := w.slot(w.lo + i)
		w.tree(ti - w.treeLo)
	}

	parallelFor(len(miss), w.workers, func() func(int) {
		// Each worker runs its slots on one scratch: its sender list
		// and controllers, and — score-only slots need no memory sums,
		// only the firing counts their fired set is marked from — one
		// counts buffer (evalOne resets it).
		var sc evalScratch
		return func(j int) {
			i := miss[j]
			ti, k := w.slot(w.lo + i)
			var u *remycc.UsageStats
			if ti == w.usageFor {
				u = &remycc.UsageStats{}
				usages[i] = u
			}
			res.Scores[i] = w.cfg.evalOne(w.trees[ti-w.treeLo], w.draws[k], u, &sc)
			if u == nil {
				u = &sc.usage
			}
			markFired(res.Fired[i*words:], u.Count)
		}
	})
	if cache != nil {
		for _, i := range miss {
			fired := res.Fired[i*words : (i+1)*words]
			switch {
			case usages[i] != nil:
				// Replace upgrades a score-only entry to a
				// usage-bearing one (identical score bits by purity),
				// so the next usage query for this slot is a full hit.
				cache.Replace(keys[i], encodeSlotEntry(res.Scores[i], usages[i], nil))
			case stale != nil && stale[i]:
				cache.Replace(keys[i], encodeSlotEntry(res.Scores[i], nil, fired))
			default:
				cache.Put(keys[i], encodeSlotEntry(res.Scores[i], nil, fired))
			}
		}
	}
	for i, u := range usages {
		if u != nil {
			_, k := w.slot(w.lo + i)
			res.Usage = append(res.Usage, shard.UsageFrame{K: k, Count: u.Count, Sum: u.Sum})
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
