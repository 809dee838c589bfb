package remy

import (
	"fmt"
	"runtime"

	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
)

// Sharded training, coordinator side. With a shard pool live,
// evaluateBatch cuts every batch's (tree x replica) slot space into
// contiguous ranges (slotsPerJob), ships each as a self-contained
// shard.Job (shardJobs) and merges the results by position. A worker
// decodes the job back into the slot range it describes and runs the
// same evalSlots the in-process trainer runs (evalslots.go), so
// sharded training is bit-identical to in-process training for the
// same Seed and Budget (remy's differential tests enforce this
// byte-for-byte on the trained tree).

// startShards brings up the shard pool for one Train call and returns
// its teardown: one lane per Remotes address. A dead remote panics:
// training has no error path, and silent degradation would hide a
// broken deployment.
func (t *Trainer) startShards() (stop func()) {
	transports := make([]shard.Transport, len(t.Remotes))
	for i, addr := range t.Remotes {
		transports[i] = &shardnet.Dialer{Addr: addr, Metrics: t.Metrics}
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

// shardWorkers resolves the per-shard parallelism shipped in each job:
// an explicit ShardWorkers, else NumCPU.
func (t *Trainer) shardWorkers() int {
	if t.ShardWorkers > 0 {
		return t.ShardWorkers
	}
	return runtime.NumCPU()
}

// slotsPerJob is the size of the contiguous slot ranges a batch of
// nSlots is cut into for the shard pool: one job per lane, so a batch
// costs each worker one round trip, and each lane keeps that one job
// in flight.
func (t *Trainer) slotsPerJob(nSlots int) int {
	jobs := min(t.shards.NumLanes(), nSlots)
	return (nSlots + jobs - 1) / jobs
}

// shardJobs renders the batch as one job per range of per slots. Each
// ships only the trees its range touches and the batch's replica list;
// the worker addresses tree ti at Trees[ti-TreeLo] and re-derives the
// draws from Seed and Gen.
func (t *Trainer) shardJobs(batch *slotWork, cfgJSON []byte, gen, per int) []*shard.Job {
	nr := batch.nReps()
	jobs := make([]*shard.Job, 0, (batch.hi+per-1)/per)
	for lo := 0; lo < batch.hi; lo += per {
		hi := min(lo+per, batch.hi)
		tiLo, tiHi := lo/nr, (hi-1)/nr
		t.shardJobID++
		jobs = append(jobs, &shard.Job{
			ID:       t.shardJobID,
			Version:  shard.ProtocolVersion,
			Seed:     t.Seed,
			Gen:      gen,
			Replicas: batch.cfg.Replicas,
			Reps:     batch.reps,
			UsageFor: batch.usageFor,
			SlotLo:   lo,
			SlotHi:   hi,
			Workers:  t.shardWorkers(),
			TreeLo:   tiLo,
			Trees:    batch.enc[tiLo : tiHi+1],
			// Every in-memory job keeps the config inline — the
			// fallback path needs it, and requeues may land on a fresh
			// connection. A connection strips it to hash-only once it
			// has shipped this config (see shardnet's tcpConn.Send).
			Cfg:     cfgJSON,
			CfgHash: batch.cfgHash,
		})
	}
	return jobs
}
