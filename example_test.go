package learnability_test

import (
	"fmt"
	"math"

	"learnability"
)

// Train a small Tao for a 10-100 Mbps dumbbell, then race it against
// TCP Cubic and NewReno on a 32 Mbps network drawn from that range.
// The budget is tiny, so the printed comparisons are properties of
// this seed; learnability.DefaultTrainBudget trains a sturdier Tao.
func Example() {
	// The designer's (imperfect) model of the network: a dumbbell with
	// two senders, 10-100 Mbps, 150 ms RTT, a 1-second on/off
	// workload and 5 BDP of FIFO buffering.
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
		Delta:        1, // weigh throughput and delay equally
		Duration:     5 * learnability.Second,
		Replicas:     2,
	}
	trainer := &learnability.Trainer{Cfg: cfg, Seed: 42}
	tao := trainer.Train(learnability.TrainBudget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2})

	type outcome struct{ tpt, queue, objective float64 }
	race := func(mk func() learnability.Algorithm) outcome {
		results := learnability.MustRunScenario(learnability.Spec{
			Topology:  learnability.DumbbellTopology,
			LinkSpeed: 32 * learnability.Mbps,
			MinRTT:    150 * learnability.Millisecond,
			Buffering: learnability.FiniteDropTail,
			BufferBDP: 5,
			MeanOn:    learnability.Second,
			MeanOff:   learnability.Second,
			Duration:  30 * learnability.Second,
			Seed:      learnability.NewSeed(7),
			Senders: []learnability.SpecSender{
				{Alg: mk(), Delta: 1},
				{Alg: mk(), Delta: 1},
			},
		})
		// Means over the flows; the objective is the paper's
		// log(throughput) - delta*log(delay) with delta = 1.
		var o outcome
		for _, r := range results {
			o.tpt += float64(r.Throughput)
			o.queue += r.QueueDelay.Seconds()
			o.objective += math.Log(float64(r.Throughput)) - math.Log(r.Delay.Seconds())
		}
		n := float64(len(results))
		return outcome{o.tpt / n, o.queue / n, o.objective / n}
	}
	t := race(func() learnability.Algorithm { return learnability.NewRemyCC(tao) })
	for _, base := range []struct {
		name string
		mk   func() learnability.Algorithm
	}{
		{"Cubic", learnability.NewCubic},
		{"NewReno", learnability.NewNewReno},
	} {
		b := race(base.mk)
		fmt.Printf("vs %s: higher objective %v, at least its throughput %v, under a third of its queueing delay %v\n",
			base.name, t.objective > b.objective, t.tpt >= b.tpt, t.queue < b.queue/3)
	}
	// Output:
	// vs Cubic: higher objective true, at least its throughput true, under a third of its queueing delay true
	// vs NewReno: higher objective true, at least its throughput true, under a third of its queueing delay true
}

// Run TCP Cubic over the N-hop parking lot (the paper's two-bottleneck
// topology generalized to N links in series, with one single-hop cross
// flow per link). The long flow crosses every link; its fair share
// stays half a link, but it pays at every bottleneck it crosses.
func ExampleParkingLotN() {
	var twoHops float64
	for hops := 2; hops <= 5; hops++ {
		spec := learnability.Spec{
			Topology:  learnability.ParkingLotN(hops, true),
			LinkSpeed: 12 * learnability.Mbps,
			MinRTT:    300 * learnability.Millisecond,
			Buffering: learnability.FiniteDropTail,
			BufferBDP: 2,
			MeanOn:    learnability.Second,
			MeanOff:   learnability.Second,
			Duration:  60 * learnability.Second,
			Seed:      learnability.NewSeed(uint64(hops)),
		}
		// The long flow first, then one cross flow per link.
		for i := 0; i < 1+hops; i++ {
			spec.Senders = append(spec.Senders, learnability.SpecSender{Alg: learnability.NewCubic(), Delta: 1})
		}
		results := learnability.MustRunScenario(spec)
		long := float64(results[0].Throughput)
		minCross := math.Inf(1)
		for _, r := range results[1:] {
			minCross = math.Min(minCross, float64(r.Throughput))
		}
		fmt.Printf("%d hops: fair share %.2f Mbps, long flow below every cross flow %v",
			hops, float64(results[0].FairShare)/1e6, long < minCross)
		if hops == 2 {
			twoHops = long
			fmt.Println()
			continue
		}
		fmt.Printf(", below its 2-hop throughput %v\n", long < twoHops)
	}
	// Output:
	// 2 hops: fair share 6.00 Mbps, long flow below every cross flow true
	// 3 hops: fair share 6.00 Mbps, long flow below every cross flow true, below its 2-hop throughput true
	// 4 hops: fair share 6.00 Mbps, long flow below every cross flow true, below its 2-hop throughput true
	// 5 hops: fair share 6.00 Mbps, long flow below every cross flow true, below its 2-hop throughput true
}

// Run the same 4-to-1 incast on a k=4 fat tree (16 hosts, up to four
// equal-cost paths per flow) under each multipath routing policy. All
// four flows converge on one 40 Mbps host downlink, so the rate they
// deliver together over the run is bounded by that link under every
// policy. Result.Throughput is per flow and per second the flow was
// on, so the delivered rate is Throughput * OnTime / Duration.
func ExampleFatTreeIncast() {
	const link = 40 * learnability.Mbps
	for _, policy := range []learnability.RoutingPolicy{
		learnability.ECMP, learnability.Spray, learnability.Adaptive,
	} {
		topology := learnability.FatTreeIncast(4, 4, policy)
		spec := learnability.Spec{
			Topology:  topology,
			LinkSpeed: link,
			MinRTT:    120 * learnability.Millisecond,
			Buffering: learnability.FiniteDropTail,
			BufferBDP: 2,
			MeanOn:    learnability.Second,
			MeanOff:   learnability.Second,
			Duration:  60 * learnability.Second,
			Seed:      learnability.NewSeed(7),
		}
		for i := 0; i < topology.FlowCount(0); i++ {
			spec.Senders = append(spec.Senders, learnability.SpecSender{Alg: learnability.NewCubic(), Delta: 1})
		}
		delivered := 0.0
		for _, r := range learnability.MustRunScenario(spec) {
			delivered += float64(r.Throughput) * r.OnTime.Seconds() / spec.Duration.Seconds()
		}
		fmt.Printf("%-8s delivers more than half the downlink %v, at most all of it %v\n",
			policy, delivered > float64(link)/2, delivered <= float64(link))
	}
	// Output:
	// ecmp     delivers more than half the downlink true, at most all of it true
	// spray    delivers more than half the downlink true, at most all of it true
	// adaptive delivers more than half the downlink true, at most all of it true
}

// Watch the congestion signals of §3.3 inside a running Tao: a trace
// callback sees the memory every ACK matched (rec_ewma, slow_rec_ewma,
// send_ewma, rtt_ratio). The Tao shares a 16 Mbps dumbbell with a
// Cubic sender, and rtt_ratio climbs as Cubic fills the buffer.
func ExampleTao_SetTrace() {
	trainer := &learnability.Trainer{
		Cfg: learnability.TrainConfig{
			Topology:     learnability.DumbbellTopology,
			LinkSpeedMin: 8 * learnability.Mbps,
			LinkSpeedMax: 32 * learnability.Mbps,
			MinRTTMin:    150 * learnability.Millisecond,
			MinRTTMax:    150 * learnability.Millisecond,
			SendersMin:   2,
			SendersMax:   2,
			MeanOn:       learnability.Second,
			MeanOff:      learnability.Second,
			Buffering:    learnability.FiniteDropTail,
			BufferBDP:    5,
			Delta:        1,
			Duration:     3 * learnability.Second,
			Replicas:     1,
		},
		Seed: 2,
	}
	tao := learnability.NewRemyCC(trainer.Train(learnability.TrainBudget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2}))

	var first, peak float64
	fired := map[int]bool{}
	tao.SetTrace(func(e learnability.TaoTrace) {
		ratio := e.Memory[3]
		if len(fired) == 0 {
			first = ratio
		}
		peak = math.Max(peak, ratio)
		fired[e.Whisker] = true
	})
	learnability.MustRunScenario(learnability.Spec{
		Topology:  learnability.DumbbellTopology,
		LinkSpeed: 16 * learnability.Mbps,
		MinRTT:    150 * learnability.Millisecond,
		Buffering: learnability.FiniteDropTail,
		BufferBDP: 5,
		MeanOn:    2 * learnability.Second,
		MeanOff:   200 * learnability.Millisecond,
		Duration:  10 * learnability.Second,
		Seed:      learnability.NewSeed(4),
		Senders: []learnability.SpecSender{
			{Alg: tao, Delta: 1},
			{Alg: learnability.NewCubic(), Delta: 1},
		},
	})
	fmt.Println("a connection starts at rtt_ratio 1:", first == 1)
	fmt.Println("rtt_ratio later exceeds 2:", peak > 2)
	fmt.Println("more than one whisker fired:", len(fired) > 1)
	// Output:
	// a connection starts at rtt_ratio 1: true
	// rtt_ratio later exceeds 2: true
	// more than one whisker fired: true
}
