package topo

// Differential tests for the graph engine: the hand-wired seed
// builders (the dumbbell and the parking lot as they were built before
// the graph refactor) are kept here — modulo Link.SetRoute's signature,
// which changed from a per-flow closure to a flat table with identical
// routing behavior, and the links and receivers now made on the
// network — and every scenario must produce bit-identical FlowStats
// through the seed builder and through NewWorld on the graph.

import (
	"testing"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/netsim"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// seedDumbbell is the pre-refactor dumbbell builder.
func seedDumbbell(rate units.Rate, minRTT units.Duration, q queue.Discipline, flows []FlowSpec) *netsim.Network {
	nw := netsim.New()
	prop := units.Duration(minRTT / 2)
	link := nw.NewLink(rate, prop, q)
	next := make([]netsim.Deliverer, len(flows))
	for i, fs := range flows {
		st := &netsim.FlowStats{Flow: i, PropDelay: prop, MinRTT: minRTT}
		rcv := nw.NewReceiver(i, units.Duration(minRTT)-prop, st)
		snd := netsim.NewSender(nw.Sched, i, fs.Alg, link, st)
		rcv.SetSender(snd)
		next[i] = rcv
		nw.AddFlow(&netsim.Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: fs.Workload})
	}
	link.SetRoute(next)
	return nw
}

// seedParkingLot is the pre-refactor two-bottleneck builder.
func seedParkingLot(rate1, rate2 units.Rate, hopProp units.Duration,
	q1, q2 queue.Discipline, flows []FlowSpec) *netsim.Network {

	nw := netsim.New()
	l1 := nw.NewLink(rate1, hopProp, q1)
	l2 := nw.NewLink(rate2, hopProp, q2)

	// One-way path propagation per flow.
	props := []units.Duration{2 * hopProp, hopProp, hopProp}

	receivers := make([]*netsim.Receiver, 3)
	for i, fs := range flows {
		ingress := netsim.Deliverer(l1)
		if i == 2 {
			ingress = l2
		}
		st := &netsim.FlowStats{Flow: i, PropDelay: props[i], MinRTT: 2 * props[i]}
		rcv := nw.NewReceiver(i, props[i], st)
		snd := netsim.NewSender(nw.Sched, i, fs.Alg, ingress, st)
		rcv.SetSender(snd)
		receivers[i] = rcv
		nw.AddFlow(&netsim.Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: fs.Workload})
	}
	l1.SetRoute([]netsim.Deliverer{l2, receivers[1], nil})
	l2.SetRoute([]netsim.Deliverer{receivers[0], nil, receivers[2]})
	return nw
}

// diffFlows builds a fresh flow set (fresh controllers, freshly seeded
// on/off workloads) so both construction paths see identical inputs.
func diffFlows(n int, seed uint64) []FlowSpec {
	out := make([]FlowSpec, n)
	for i := range out {
		var alg cc.Algorithm
		if i%2 == 0 {
			alg = cubic.New()
		} else {
			alg = newreno.New()
		}
		out[i] = FlowSpec{
			Alg:      alg,
			Workload: &workload.OnOff{MeanOn: units.Second, MeanOff: units.Second, Rng: rng.New(seed).SplitN("workload", i)},
		}
	}
	return out
}

// statsEqual compares every exported FlowStats field.
func statsEqual(t *testing.T, label string, a, b []*netsim.FlowStats) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d flows", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Flow != y.Flow || x.DeliveredBytes != y.DeliveredBytes ||
			x.Arrivals != y.Arrivals || x.DelaySum != y.DelaySum ||
			x.PropDelay != y.PropDelay || x.MinRTT != y.MinRTT ||
			x.OnTime != y.OnTime || x.SentPackets != y.SentPackets ||
			x.Retransmits != y.Retransmits || x.Timeouts != y.Timeouts {
			t.Fatalf("%s: flow %d stats diverged:\nseed:  %+v\ngraph: %+v", label, i, *x, *y)
		}
	}
}

func TestGraphDumbbellBitIdenticalToSeedBuilder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		rate   units.Rate
		minRTT units.Duration
		mkQ    func() queue.Discipline
	}{
		{"1flow-droptail", 1, 10 * units.Mbps, 150 * units.Millisecond,
			func() queue.Discipline { return queue.NewDropTail(50 * 1500) }},
		{"2flow-droptail", 2, 32 * units.Mbps, 100 * units.Millisecond,
			func() queue.Discipline { return queue.NewDropTail(80 * 1500) }},
		{"4flow-infinite", 4, 12 * units.Mbps, 80 * units.Millisecond,
			func() queue.Discipline { return queue.NewDropTail(queue.Unbounded) }},
		{"2flow-sfqcodel", 2, 20 * units.Mbps, 120 * units.Millisecond,
			func() queue.Discipline { return queue.NewSFQCoDel(queue.SFQCoDelBins, 60*1500) }},
		// An odd-nanosecond RTT exercises the forward/reverse rounding
		// split (prop = minRTT/2, reverse = minRTT - prop).
		{"odd-rtt", 2, 15 * units.Mbps, 101*units.Millisecond + 1,
			func() queue.Discipline { return queue.NewDropTail(40 * 1500) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := seedDumbbell(tc.rate, tc.minRTT, tc.mkQ(), diffFlows(tc.n, 11)).Run(12 * units.Second)
			nw, err := build(dumbbellGraph(tc.rate, tc.minRTT, tc.n), []queue.Discipline{tc.mkQ()}, diffFlows(tc.n, 11))
			if err != nil {
				t.Fatal(err)
			}
			statsEqual(t, tc.name, ref, nw.Run(12*units.Second))
		})
	}
}

func TestGraphParkingLotBitIdenticalToSeedBuilder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		r1, r2  units.Rate
		hopProp units.Duration
		mkQ     func() queue.Discipline
	}{
		{"equal-links", 10 * units.Mbps, 10 * units.Mbps, 75 * units.Millisecond,
			func() queue.Discipline { return queue.NewDropTail(50 * 1500) }},
		{"unequal-links", 10 * units.Mbps, 40 * units.Mbps, 75 * units.Millisecond,
			func() queue.Discipline { return queue.NewDropTail(50 * 1500) }},
		{"infinite", 8 * units.Mbps, 16 * units.Mbps, 40 * units.Millisecond,
			func() queue.Discipline { return queue.NewDropTail(queue.Unbounded) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := seedParkingLot(tc.r1, tc.r2, tc.hopProp, tc.mkQ(), tc.mkQ(), diffFlows(3, 23)).Run(12 * units.Second)
			g := parkingLotGraph([]units.Rate{tc.r1, tc.r2}, tc.hopProp, 1, true)
			nw, err := build(g, []queue.Discipline{tc.mkQ(), tc.mkQ()}, diffFlows(3, 23))
			if err != nil {
				t.Fatal(err)
			}
			statsEqual(t, tc.name, ref, nw.Run(12*units.Second))
		})
	}
}

// TestSeedDiffNotVacuous guards the guard: different workload seeds
// must produce different stats, or the equality above proves nothing.
func TestSeedDiffNotVacuous(t *testing.T) {
	q := func() queue.Discipline { return queue.NewDropTail(50 * 1500) }
	a := seedDumbbell(10*units.Mbps, 150*units.Millisecond, q(), diffFlows(2, 11)).Run(12 * units.Second)
	b := seedDumbbell(10*units.Mbps, 150*units.Millisecond, q(), diffFlows(2, 12)).Run(12 * units.Second)
	if a[0].DeliveredBytes == b[0].DeliveredBytes && a[0].DelaySum == b[0].DelaySum {
		t.Fatal("different seeds produced identical stats; differential tests are vacuous")
	}
}
