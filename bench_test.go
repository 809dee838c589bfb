// Benchmarks that regenerate every table and figure in the paper's
// evaluation (docs/EXPERIMENTS.md maps each to its experiment). Run
// with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment (training the Tao
// protocols it needs — cached across benchmarks within one run — and
// sweeping the testing scenarios), prints the regenerated table via
// b.Logf (visible with -v), and reports the headline quantities as
// benchmark metrics so regressions in the *shape* of a result are
// visible in CI output.
package learnability_test

import (
	"fmt"
	"net"
	"testing"

	"learnability"
)

// benchEffort is the fidelity used by the figure benchmarks.
func benchEffort() learnability.Effort { return learnability.QuickEffort() }

func BenchmarkFigure1Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunCalibration(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		tao, cub := res.Row("Tao"), res.Row("Cubic")
		omni := res.Row("Omniscient")
		if tao != nil && cub != nil && omni != nil {
			b.ReportMetric(tao.MeanObjective-cub.MeanObjective, "tao-minus-cubic-obj")
			b.ReportMetric(tao.MedianTptBps/omni.MedianTptBps, "tao-over-omniscient-tpt")
		}
	}
}

func BenchmarkFigure2LinkSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunLinkSpeed(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		// Headline: the broad Tao vs the narrow Tao inside 22-44 Mbps,
		// and the broad Tao vs Cubic over the full range.
		broad := res.MeanInRange("", "Tao-1000x", 20, 50)
		narrow := res.MeanInRange("", "Tao-2x", 20, 50)
		cubic := res.MeanInRange("", "Cubic", 1, 1000)
		broadFull := res.MeanInRange("", "Tao-1000x", 1, 1000)
		b.ReportMetric(narrow-broad, "narrow-minus-broad-in-range")
		b.ReportMetric(broadFull-cubic, "broad-minus-cubic-full-range")
	}
}

func BenchmarkFigure3Multiplexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunMultiplexing(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		if lo, ok := res.At("5bdp", "Tao-1-2", 1); ok {
			if hi, ok2 := res.At("5bdp", "Tao-1-100", 1); ok2 {
				b.ReportMetric(lo-hi, "narrow-minus-broad-at-1-sender")
			}
		}
		if lo, ok := res.At("5bdp", "Tao-1-2", 100); ok {
			if hi, ok2 := res.At("5bdp", "Tao-1-100", 100); ok2 {
				b.ReportMetric(hi-lo, "broad-minus-narrow-at-100-senders")
			}
		}
	}
}

func BenchmarkFigure4PropDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunPropDelay(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		exact := res.MeanInRange("", "Tao-rtt-150", 1, 49)
		dithered := res.MeanInRange("", "Tao-rtt-145-155", 1, 49)
		broad := res.MeanInRange("", "Tao-rtt-50-250", 50, 250)
		b.ReportMetric(dithered-exact, "dithered-minus-exact-below-50ms")
		b.ReportMetric(broad, "broad-50-250ms")
	}
}

func BenchmarkFigure6ParkingLot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunStructure(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		one := res.MeanEqualTpt("Tao-one-bottleneck")
		two := res.MeanEqualTpt("Tao-two-bottleneck")
		cub := res.MeanEqualTpt("Cubic")
		if two > 0 {
			b.ReportMetric(one/two, "one-bneck-over-two-bneck-tpt")
		}
		if cub > 0 {
			b.ReportMetric(one/cub, "one-bneck-over-cubic-tpt")
		}
	}
}

func BenchmarkFigure7TCPAwareness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunTCPAware(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		nh := res.Row("homogeneous", "Tao-TCP-naive")
		ah := res.Row("homogeneous", "Tao-TCP-aware")
		nm := res.Row("vs-NewReno", "Tao-TCP-naive")
		am := res.Row("vs-NewReno", "Tao-TCP-aware")
		if nh != nil && ah != nil && nh.MedianDelaySec > 0 {
			b.ReportMetric(ah.MedianDelaySec/nh.MedianDelaySec, "aware-over-naive-homog-delay")
		}
		if nm != nil && am != nil && nm.MedianTptBps > 0 {
			b.ReportMetric(am.MedianTptBps/nm.MedianTptBps, "aware-over-naive-vs-tcp-tpt")
		}
	}
}

func BenchmarkFigure8TimeDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunTimeDomain(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		for _, name := range []string{"Tao-TCP-aware", "Tao-TCP-naive"} {
			if tr := res.Trace(name); tr != nil {
				b.ReportMetric(tr.MeanQueueBetween(5, 10), name+"-queue-during-tcp")
			}
		}
	}
}

func BenchmarkFigure9Diversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunDiversity(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		nd := res.Row("naive", "mixed", "Del")
		cd := res.Row("co-optimized", "mixed", "Del")
		nt := res.Row("naive", "alone", "Tpt")
		ct := res.Row("co-optimized", "alone", "Tpt")
		if nd != nil && cd != nil && cd.QueueMs > 0 {
			b.ReportMetric(nd.QueueMs/cd.QueueMs, "del-delay-improvement-from-coopt")
		}
		if nt != nil && ct != nil && nt.TptMbps > 0 {
			b.ReportMetric(ct.TptMbps/nt.TptMbps, "tpt-sender-cost-of-playing-nice")
		}
	}
}

func BenchmarkSignalKnockout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunKnockout(benchEffort(), nil)
		b.Logf("\n%s\nmost valuable signal: %s", res.Table(), res.MostValuableSignal())
		all := res.Row("")
		rec := res.Row("rec_ewma")
		if all != nil && rec != nil {
			b.ReportMetric(all.MeanObjective-rec.MeanObjective, "value-of-rec-ewma")
		}
	}
}

// BenchmarkTrainer measures the protocol-design search itself (one
// tiny generation).
func BenchmarkTrainer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := &learnability.Trainer{
			Cfg: learnability.TrainConfig{
				Topology:     learnability.DumbbellTopology,
				LinkSpeedMin: 10 * learnability.Mbps,
				LinkSpeedMax: 100 * learnability.Mbps,
				MinRTTMin:    150 * learnability.Millisecond,
				MinRTTMax:    150 * learnability.Millisecond,
				SendersMin:   2,
				SendersMax:   2,
				MeanOn:       learnability.Second,
				MeanOff:      learnability.Second,
				Buffering:    learnability.FiniteDropTail,
				BufferBDP:    5,
				Delta:        1,
				Duration:     5 * learnability.Second,
				Replicas:     2,
			},
			Seed: uint64(i),
		}
		tree := tr.Train(learnability.TrainBudget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2})
		if tree.Len() == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkTrainerMemoized measures the memoized evaluation plane.
// "uncached" is the cache-free baseline; "cached" is the default
// configuration on a fresh Trainer each iteration (cold cache, so the
// gain is intra-run neighbor overlap plus the free post-pass usage
// refresh); "warm" reuses one Trainer so every rerun after the first
// is served entirely from the slot cache — the warm-restart floor.
// The trained bits are identical in all three lanes
// (TestMemoizedTrainBitEqualInProcess pins that); only the wall time
// may differ. scripts/bench.sh gates warm against uncached.
func BenchmarkTrainerMemoized(b *testing.B) {
	cfg := learnability.TrainConfig{
		Topology:     learnability.DumbbellTopology,
		LinkSpeedMin: 10 * learnability.Mbps,
		LinkSpeedMax: 100 * learnability.Mbps,
		MinRTTMin:    150 * learnability.Millisecond,
		MinRTTMax:    150 * learnability.Millisecond,
		SendersMin:   2,
		SendersMax:   2,
		MeanOn:       learnability.Second,
		MeanOff:      learnability.Second,
		Buffering:    learnability.FiniteDropTail,
		BufferBDP:    5,
		Delta:        1,
		Duration:     5 * learnability.Second,
		Replicas:     2,
	}
	budget := learnability.TrainBudget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := &learnability.Trainer{Cfg: cfg, Seed: uint64(i), DisableEvalCache: true}
			if tree := tr.Train(budget); tree.Len() == 0 {
				b.Fatal("empty tree")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := &learnability.Trainer{Cfg: cfg, Seed: uint64(i)}
			if tree := tr.Train(budget); tree.Len() == 0 {
				b.Fatal("empty tree")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		tr := &learnability.Trainer{Cfg: cfg, Seed: 1}
		tr.Train(budget) // untimed: fill the slot cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tree := tr.Train(budget); tree.Len() == 0 {
				b.Fatal("empty tree")
			}
		}
	})
}

// BenchmarkTrainerSharded measures generation sharding at fixed
// per-shard parallelism: every shard evaluates its slice of the
// generation with a single worker, so wall time falls as shards rise
// on a multi-core runner. shards-1 is the single-worker in-process
// trainer (no shard machinery) — the scaling baseline. The sharded
// runs use in-process lanes: the same job slicing, codec, and merge
// path as worker processes, without cold-start noise from spawning
// binaries inside the benchmark loop.
func BenchmarkTrainerSharded(b *testing.B) {
	cfg := learnability.TrainConfig{
		Topology:     learnability.DumbbellTopology,
		LinkSpeedMin: 10 * learnability.Mbps,
		LinkSpeedMax: 100 * learnability.Mbps,
		MinRTTMin:    150 * learnability.Millisecond,
		MinRTTMax:    150 * learnability.Millisecond,
		SendersMin:   2,
		SendersMax:   2,
		MeanOn:       learnability.Second,
		MeanOff:      learnability.Second,
		Buffering:    learnability.FiniteDropTail,
		BufferBDP:    5,
		Delta:        1,
		Duration:     5 * learnability.Second,
		Replicas:     4,
	}
	// Sub-benchmark names must not end in a digit: bench.sh strips a
	// trailing -N (the GOMAXPROCS suffix) when building BENCH_core.json.
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := &learnability.Trainer{
					Cfg:          cfg,
					Seed:         uint64(i),
					Workers:      1,
					Shards:       shards,
					ShardWorkers: 1,
				}
				tree := tr.Train(learnability.TrainBudget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2})
				if tree.Len() == 0 {
					b.Fatal("empty tree")
				}
			}
		})
	}
}

// BenchmarkTrainerShardedTCP measures distributed training over the
// shardnet fabric on loopback: the same tiny search as
// BenchmarkTrainerSharded, with every evaluation crossing a real TCP
// connection to in-process worker servers (handshake, frames,
// heartbeats). "cold" serves every job fresh on two workers; "warm"
// re-trains the same seed against a worker whose content-addressed
// result cache is pre-filled by an untimed run, so it measures the
// fabric's floor — cache lookups plus wire round-trips, no
// simulation. The gap between the two is the evaluation work the
// cache elides.
func BenchmarkTrainerShardedTCP(b *testing.B) {
	cfg := learnability.TrainConfig{
		Topology:     learnability.DumbbellTopology,
		LinkSpeedMin: 10 * learnability.Mbps,
		LinkSpeedMax: 100 * learnability.Mbps,
		MinRTTMin:    150 * learnability.Millisecond,
		MinRTTMax:    150 * learnability.Millisecond,
		SendersMin:   2,
		SendersMax:   2,
		MeanOn:       learnability.Second,
		MeanOff:      learnability.Second,
		Buffering:    learnability.FiniteDropTail,
		BufferBDP:    5,
		Delta:        1,
		Duration:     5 * learnability.Second,
		Replicas:     4,
	}
	budget := learnability.TrainBudget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2}
	startWorker := func(b *testing.B, cache int) string {
		b.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		b.Cleanup(func() { ln.Close() })
		srv := learnability.NewShardServer(cache)
		go srv.Serve(ln)
		return ln.Addr().String()
	}
	train := func(b *testing.B, seed uint64, remotes []string) {
		tr := &learnability.Trainer{Cfg: cfg, Seed: seed, Remotes: remotes}
		if tree := tr.Train(budget); tree.Len() == 0 {
			b.Fatal("empty tree")
		}
	}

	b.Run("cold", func(b *testing.B) {
		remotes := []string{startWorker(b, -1), startWorker(b, -1)} // no cache
		for i := 0; i < b.N; i++ {
			train(b, uint64(i), remotes)
		}
	})
	b.Run("warm", func(b *testing.B) {
		remotes := []string{startWorker(b, 0)}
		train(b, 1, remotes) // untimed: fill the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			train(b, 1, remotes)
		}
	})
}

// BenchmarkScenarioRun measures raw simulation throughput: one 30-s
// two-sender Cubic dumbbell.
func BenchmarkScenarioRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := learnability.Spec{
			Topology:  learnability.DumbbellTopology,
			LinkSpeed: 32 * learnability.Mbps,
			MinRTT:    150 * learnability.Millisecond,
			Buffering: learnability.FiniteDropTail,
			BufferBDP: 5,
			MeanOn:    learnability.Second,
			MeanOff:   learnability.Second,
			Duration:  30 * learnability.Second,
			Seed:      learnability.NewSeed(uint64(i)),
			Senders: []learnability.SpecSender{
				{Alg: learnability.NewCubic(), Delta: 1},
				{Alg: learnability.NewCubic(), Delta: 1},
			},
		}
		learnability.MustRunScenario(spec)
	}
}

// BenchmarkScenarioRunParkingLot measures the multi-hop forwarding hot
// path: one 30-s Cubic run on a 3-hop parking lot with cross traffic
// (four flows, three links, per-link next-hop chains). Together with
// BenchmarkScenarioRun it gates the graph engine: the dumbbell guards
// the single-hop fast path, this guards the forwarding chains.
func BenchmarkScenarioRunParkingLot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := learnability.Spec{
			Topology:  learnability.ParkingLotN(3, true),
			LinkSpeed: 32 * learnability.Mbps,
			MinRTT:    150 * learnability.Millisecond,
			Buffering: learnability.FiniteDropTail,
			BufferBDP: 5,
			MeanOn:    learnability.Second,
			MeanOff:   learnability.Second,
			Duration:  30 * learnability.Second,
			Seed:      learnability.NewSeed(uint64(i)),
			Senders: []learnability.SpecSender{
				{Alg: learnability.NewCubic(), Delta: 1},
				{Alg: learnability.NewCubic(), Delta: 1},
				{Alg: learnability.NewCubic(), Delta: 1},
				{Alg: learnability.NewCubic(), Delta: 1},
			},
		}
		learnability.MustRunScenario(spec)
	}
}

// BenchmarkScenarioRunFatTree measures the multipath forwarding hot
// path: one 30-s Cubic run of a 4-flow incast on a k=4 fat-tree (96
// links, 4 equal-cost paths per inter-pod flow) under per-packet
// spraying — the policy that exercises the packet-time selector on
// every hop with fanout. Together with BenchmarkScenarioRun and
// BenchmarkScenarioRunParkingLot it gates the graph engine; the
// forwarding path itself stays 0 allocs/packet
// (TestMultipathForwardZeroAlloc pins that exactly, and the
// BenchmarkLinkFanout micro benchmark gates it in BENCH_core.json).
func BenchmarkScenarioRunFatTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := learnability.FatTreeIncast(4, 4, learnability.Spray)
		spec := learnability.Spec{
			Topology:  topo,
			LinkSpeed: 32 * learnability.Mbps,
			MinRTT:    150 * learnability.Millisecond,
			Buffering: learnability.FiniteDropTail,
			BufferBDP: 5,
			MeanOn:    learnability.Second,
			MeanOff:   learnability.Second,
			Duration:  30 * learnability.Second,
			Seed:      learnability.NewSeed(uint64(i)),
		}
		for f := 0; f < topo.FlowCount(0); f++ {
			spec.Senders = append(spec.Senders, learnability.SpecSender{Alg: learnability.NewCubic(), Delta: 1})
		}
		learnability.MustRunScenario(spec)
	}
}

// BenchmarkScenarioRunECN measures the signal-plane hot path: a 30-s
// Tao dumbbell over a CE-marking CoDel gateway with an on/off
// bottleneck, so every dequeue runs the marking control law, every ACK
// echoes CE, and every tick updates the ecn_frac memory dimension.
// Alongside BenchmarkScenarioRun (the ECN-off dumbbell) it gates the
// tentpole's cost: marking must stay as cheap as dropping.
func BenchmarkScenarioRunECN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := learnability.Spec{
			Topology:  learnability.DumbbellTopology,
			LinkSpeed: 32 * learnability.Mbps,
			MinRTT:    150 * learnability.Millisecond,
			Buffering: learnability.CoDelAQM,
			BufferBDP: 5,
			ECN:       true,
			MeanOn:    learnability.Second,
			MeanOff:   learnability.Second,
			Duration:  30 * learnability.Second,
			Seed:      learnability.NewSeed(uint64(i)),
			VarRate: learnability.VarRate{
				Kind:      learnability.VarRateOnOff,
				LowFactor: 0.5,
				MeanHigh:  learnability.Second,
				MeanLow:   learnability.Second,
			},
			Senders: []learnability.SpecSender{
				{Alg: learnability.NewRemyCC(learnability.NewWhiskerTree()), Delta: 1},
				{Alg: learnability.NewRemyCC(learnability.NewWhiskerTree()), Delta: 1},
			},
		}
		learnability.MustRunScenario(spec)
	}
}

// BenchmarkVegasSqueeze regenerates the §4.5 premise: Vegas holds its
// own against itself but is squeezed out by loss-triggered TCP.
func BenchmarkVegasSqueeze(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := learnability.RunVegasSqueeze(benchEffort(), nil)
		b.Logf("\n%s", res.Table())
		sq := res.Row("vs-NewReno", "Vegas")
		reno := res.Row("vs-NewReno", "NewReno")
		if sq != nil && reno != nil && reno.TptMbps > 0 {
			b.ReportMetric(sq.TptMbps/reno.TptMbps, "vegas-share-vs-newreno")
		}
	}
}
