package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"learnability/internal/cc/remycc"
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// Layer probes: small closed loops over one layer's public functions,
// run after the traced pass of every workload. They are the per-layer
// numbers that do not depend on the workload, so a change to one layer
// shows here first and the workloads say what it was worth.

// probeRounds is how many times a probe repeats its loop; the median
// round is reported.
const probeRounds = 5

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink int

// perIter times fn over iters iterations, probeRounds times, and
// returns the median nanoseconds per iteration.
func perIter(iters int, fn func(iters int)) float64 {
	rounds := make([]float64, probeRounds)
	for r := range rounds {
		t0 := time.Now()
		fn(iters)
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(rounds)
}

// probeSched is the event core at a fixed heap depth: depth events
// that each re-arm themselves a pseudo-random delay ahead, so every
// executed event is one pop and one push at that depth.
func probeSched(depth, events int) float64 {
	return perIter(events, func(n int) {
		s := sim.New()
		x := uint64(depth)
		left := n
		var fn func()
		fn = func() {
			if left--; left == 0 {
				s.Stop()
			}
			x = x*6364136223846793005 + 1442695040888963407
			s.After(units.Duration(1+x>>44), fn)
		}
		for i := 0; i < depth; i++ {
			s.After(units.Duration(i+1), fn)
		}
		s.Run(units.MaxTime)
		sink += s.Len()
	})
}

// probeRearm is the sender's per-ACK retransmission-timer pattern:
// Stop the pending timer and arm a later one, with 256 other events in
// the heap.
func probeRearm(iters int) float64 {
	return perIter(iters, func(n int) {
		s := sim.New()
		nop := func() {}
		for i := 0; i < 256; i++ {
			s.After(units.Duration(i+1)*units.Millisecond, nop)
		}
		t := s.After(units.Second, nop)
		for i := 0; i < n; i++ {
			t.Stop()
			t = s.After(units.Second+units.Duration(i), nop)
		}
		sink += s.Len()
	})
}

// probeQueue is one Enqueue and one Dequeue over a standing queue of
// 64 packets from 16 flows, served every 50 us so a packet's sojourn
// (3.2 ms) stays under CoDel's target: the dequeue law's common path.
func probeQueue(q queue.Discipline, iters int) float64 {
	pool := &packet.Pool{}
	if pa, ok := q.(queue.PoolAware); ok {
		pa.SetPool(pool)
	}
	now := units.Time(0)
	seq := int64(0)
	offer := func() {
		p := pool.Data(int(seq%16), seq, now)
		seq++
		if !q.Enqueue(now, p) {
			pool.Put(p)
		}
	}
	for i := 0; i < 64; i++ {
		offer()
	}
	return perIter(iters, func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(50 * units.Microsecond)
			offer()
			pool.Put(q.Dequeue(now))
		}
	})
}

// signalWalk records the congestion-signal vectors a Tao sender
// actually visits: one sender's memory, sampled every simulated
// millisecond of a short dumbbell run.
func signalWalk(tree *remycc.Tree, sc scale) ([]remycc.Vector, error) {
	alg := remycc.New(tree)
	var walk []remycc.Vector
	_, err := scenario.Run(scenario.Spec{
		Topology:      scenario.Dumbbell,
		LinkSpeed:     32 * units.Mbps,
		MinRTT:        150 * units.Millisecond,
		Buffering:     scenario.FiniteDropTail,
		BufferBDP:     5,
		MeanOn:        units.Second,
		MeanOff:       units.Second,
		Duration:      sc.trainDur,
		Seed:          rng.New(1),
		Senders:       []scenario.Sender{{Alg: alg, Delta: 1}, {Alg: remycc.New(tree), Delta: 1}},
		Probe:         func(units.Time) { walk = append(walk, alg.LastVector()) },
		ProbeInterval: units.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("signal walk: %w", err)
	}
	return walk, nil
}

// probeJob is a shard job shaped like the train workloads' commonest
// one: a slice of a hill-climb batch, seven neighbour trees by four
// replicas, with the config by hash.
func probeJob(tree []byte) *shard.Job {
	trees := make([][]byte, 7)
	for i := range trees {
		trees[i] = tree
	}
	cfg, _ := json.Marshal(trainConfig(fullScale)) // plain data: cannot fail
	return &shard.Job{
		ID: 1, Version: shard.ProtocolVersion, Seed: 1, Gen: 1, Replicas: 4, UsageFor: -1,
		SlotLo: 0, SlotHi: 28, Workers: 1, Trees: trees, CfgHash: shard.HashBytes(cfg),
	}
}

// runProbes fills the probe metrics. Disk probes work under dir.
func runProbes(lm *metricSet, tree *remycc.Tree, sc scale, dir string) error {
	n := sc.probeIters
	lm.set("sim.probe_ns_per_event_h16", probeSched(16, 20*n))
	lm.set("sim.probe_ns_per_event_h1024", probeSched(1024, 20*n))
	lm.set("sim.probe_rearm_ns", probeRearm(20*n))

	const capBytes = 1 << 20
	lm.set("queue.probe_ns_per_pkt.droptail", probeQueue(queue.NewDropTail(capBytes), 20*n))
	lm.set("queue.probe_ns_per_pkt.codel", probeQueue(queue.NewCoDel(capBytes), 20*n))
	lm.set("queue.probe_ns_per_pkt.sfqcodel", probeQueue(queue.NewSFQCoDel(queue.SFQCoDelBins, capBytes), 20*n))

	walk, err := signalWalk(tree, sc)
	if err != nil {
		return err
	}
	lm.set("remycc.probe_lookup_ns", perIter(20*n, func(n int) {
		hint := 0
		for i := 0; i < n; i++ {
			hint = tree.LookupCached(walk[i%len(walk)], hint)
		}
		sink += hint
	}))
	lm.set("remycc.probe_lookup_uncached_ns", perIter(20*n, func(n int) {
		for i := 0; i < n; i++ {
			sink += tree.Lookup(walk[i%len(walk)])
		}
	}))
	enc, err := tree.MarshalBinary()
	if err != nil {
		return fmt.Errorf("marshal tree: %w", err)
	}
	lm.set("remycc.tree_bytes", float64(len(enc)))
	lm.set("remycc.probe_marshal_ns", perIter(n, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := tree.MarshalBinary()
			sink += len(b)
		}
	}))

	job := probeJob(enc)
	jobWire, err := shard.EncodeJob(job, true)
	if err != nil {
		return fmt.Errorf("encode job: %w", err)
	}
	res := &shard.Result{ID: 1, Scores: make([]float64, job.SlotHi-job.SlotLo)}
	resWire, err := shard.EncodeResult(res, true)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	lm.set("shard.job_bytes", float64(len(jobWire)))
	lm.set("shard.result_bytes", float64(len(resWire)))
	var codecErr error
	lm.set("shard.probe_job_codec_ns", perIter(n, func(n int) {
		for i := 0; i < n; i++ {
			b, err := shard.EncodeJob(job, true)
			if err == nil {
				_, _, err = shard.DecodeJob(b)
			}
			if err != nil {
				codecErr = err
			}
		}
	}))
	lm.set("shard.probe_result_codec_ns", perIter(n, func(n int) {
		for i := 0; i < n; i++ {
			b, err := shard.EncodeResult(res, true)
			if err == nil {
				_, err = shard.DecodeResult(b)
			}
			if err != nil {
				codecErr = err
			}
		}
	}))
	if codecErr != nil {
		return fmt.Errorf("shard codec probe: %w", codecErr)
	}

	// Cache probes use slot-sized entries (a score plus a small usage
	// frame) under distinct keys.
	entry := make([]byte, 128)
	key := func(i int) (k shardnet.Key) {
		k[0], k[1], k[2], k[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		return k
	}
	mem := shardnet.NewCache(0)
	puts := 0
	lm.set("cache.probe_put_ns", perIter(n, func(n int) {
		for i := 0; i < n; i++ {
			mem.Put(key(puts), entry)
			puts++
		}
	}))
	lm.set("cache.probe_get_ns", perIter(n, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := mem.Get(key(i % puts))
			sink += len(b)
		}
	}))

	tmp, err := os.MkdirTemp(dir, "diskcache-")
	if err != nil {
		return fmt.Errorf("disk cache probe: %w", err)
	}
	defer os.RemoveAll(tmp)
	disk, err := shardnet.NewDiskCache(tmp, 0)
	if err != nil {
		return fmt.Errorf("disk cache probe: %w", err)
	}
	diskN := n / 50
	puts = 0
	lm.set("cache.probe_disk_put_us", perIter(diskN, func(n int) {
		for i := 0; i < n; i++ {
			disk.Put(key(puts), entry)
			puts++
		}
	})/1e3)
	// A second cache over the same directory misses in memory, so every
	// Get loads and verifies a file. Each round reads distinct keys.
	cold, err := shardnet.NewDiskCache(tmp, 0)
	if err != nil {
		return fmt.Errorf("disk cache probe: %w", err)
	}
	gets := 0
	lm.set("cache.probe_disk_get_us", perIter(diskN, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := cold.Get(key(gets))
			gets++
			sink += len(b)
		}
	})/1e3)
	return nil
}
