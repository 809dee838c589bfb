package remy

import (
	"fmt"
	"runtime"

	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
)

// Sharded training, coordinator side. With a shard pool live,
// evaluateBatch cuts every batch's (tree x replica) slot space into one
// contiguous range per lane (shardJobs), ships each as a self-contained
// shard.Job and merges the results by each job's slot range. A worker
// decodes the job back into the slot range it describes and runs the
// same evalSlots the in-process trainer runs (evalslots.go), so
// sharded training is bit-identical to in-process training for the
// same Seed and Budget (remy's differential tests enforce this
// byte-for-byte on the trained tree).

// startShards brings up the shard pool for one Train call and returns
// its teardown: one lane per distinct Remotes address, whose share is
// the number of times Remotes names it. A dead remote panics:
// training has no error path, and silent degradation would hide a
// broken deployment.
func (t *Trainer) startShards() (stop func()) {
	var transports []shard.Transport
	laneOf := make(map[string]int, len(t.Remotes))
	t.shares = t.shares[:0]
	for _, addr := range t.Remotes {
		if i, ok := laneOf[addr]; ok {
			t.shares[i]++
			continue
		}
		laneOf[addr] = len(transports)
		transports = append(transports, &shardnet.Dialer{Addr: addr, Metrics: t.Metrics})
		t.shares = append(t.shares, 1)
	}
	pool := &shard.Pool{
		Transports: transports,
		// The in-process fallback shares the trainer's slot cache (a
		// nil cache degrades to the plain evaluator), so jobs that fall
		// back memoize exactly like in-process training.
		Fallback: CachedShardEval(t.localCache()),
		Timeout:  t.ShardTimeout,
		Metrics:  t.Metrics,
	}
	if err := pool.Start(); err != nil {
		panic(fmt.Sprintf("remy: shard pool: %v", err))
	}
	t.shards = pool
	t.shardResults, t.shardCacheHits = 0, 0
	return func() {
		pool.Close()
		t.shards = nil
	}
}

// shardWorkers resolves the per-share parallelism shipped in each job:
// an explicit ShardWorkers, else NumCPU.
func (t *Trainer) shardWorkers() int {
	if t.ShardWorkers > 0 {
		return t.ShardWorkers
	}
	return runtime.NumCPU()
}

// shardJobs cuts the batch into one contiguous job per lane, in lane
// order, so that shard.Pool.Do hands job i to lane i: a batch costs
// each worker one round trip. Lane i takes ceil(nSlots x share/total)
// of the slots left and asks for share x shardWorkers() workers, so
// equal shares cut equal ranges and a batch smaller than the lane
// count leaves the last lanes idle. Each job ships only the trees its
// range touches and the batch's replica list; the worker addresses
// tree ti at Trees[ti-TreeLo] and re-derives the draws from Seed and
// Gen. The jobs are built in storage the Trainer keeps, one Job per
// lane, reused by the next batch.
func (t *Trainer) shardJobs(batch *slotWork, cfgJSON []byte, gen int) []*shard.Job {
	nr, nSlots, total := batch.nReps(), batch.hi, len(t.Remotes) // the shares sum to len(Remotes)
	if len(t.jobStore) < len(t.shares) {
		t.jobStore = make([]shard.Job, len(t.shares))
	}
	jobs := t.jobs[:0]
	for lo, lane := 0, 0; lo < nSlots; lane++ {
		share := t.shares[lane]
		hi := min(lo+(nSlots*share+total-1)/total, nSlots)
		tiLo, tiHi := lo/nr, (hi-1)/nr
		t.shardJobID++
		job := &t.jobStore[lane]
		jobs = append(jobs, job)
		*job = shard.Job{
			ID:       t.shardJobID,
			Version:  shard.ProtocolVersion,
			Seed:     t.Seed,
			Gen:      gen,
			Replicas: batch.cfg.Replicas,
			Reps:     batch.reps,
			UsageFor: batch.usageFor,
			SlotLo:   lo,
			SlotHi:   hi,
			Workers:  share * t.shardWorkers(),
			TreeLo:   tiLo,
			Trees:    batch.enc[tiLo : tiHi+1],
			// Every in-memory job keeps the config inline — the
			// fallback path needs it, and requeues may land on a fresh
			// connection. A connection strips it to hash-only once it
			// has shipped this config (see shardnet's tcpConn.Send).
			Cfg:     cfgJSON,
			CfgHash: batch.cfgHash,
		}
		lo = hi
	}
	t.jobs = jobs
	return jobs
}
