package netsim

import (
	"math"
	"testing"

	"learnability/internal/cc"
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// fixedCC is a congestion-control stub with a constant window and
// pacing interval; it lets transport tests control the load exactly.
type fixedCC struct {
	w      float64
	pace   units.Duration
	losses int
	tmouts int
}

func (f *fixedCC) Reset(units.Time)               {}
func (f *fixedCC) OnACK(units.Time, cc.Feedback)  {}
func (f *fixedCC) OnLoss(units.Time)              { f.losses++ }
func (f *fixedCC) OnTimeout(units.Time)           { f.tmouts++ }
func (f *fixedCC) Window() float64                { return f.w }
func (f *fixedCC) PacingInterval() units.Duration { return f.pace }

// buildDumbbell wires n flows through one bottleneck link. Each flow
// gets its own congestion controller from mk and workload from wl.
func buildDumbbell(rate units.Rate, minRTT units.Duration, q queue.Discipline,
	n int, mk func(i int) cc.Algorithm, wl func(i int) workload.Source) *Network {

	nw := New()
	link := nw.NewLink(rate, minRTT/2, q)
	next := make([]Deliverer, n)
	for i := 0; i < n; i++ {
		st := &FlowStats{Flow: i, PropDelay: minRTT / 2, MinRTT: minRTT}
		rcv := nw.NewReceiver(i, minRTT/2, st)
		snd := NewSender(nw.Sched, i, mk(i), link, st)
		rcv.SetSender(snd)
		next[i] = rcv
		nw.AddFlow(&Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: wl(i)})
	}
	link.SetRoute(next)
	return nw
}

func alwaysOn(i int) workload.Source { return workload.AlwaysOn{} }

func TestWindowLimitedThroughput(t *testing.T) {
	// Window 10, RTT 100 ms: ~10 pkts per RTT = 1.2 Mbps on a 12 Mbps
	// link (far from saturation).
	q := queue.NewDropTail(100 * packet.MTU)
	nw := buildDumbbell(12*units.Mbps, 100*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return &fixedCC{w: 10} }, alwaysOn)
	st := nw.Run(30 * units.Second)[0]
	got := float64(st.Throughput())
	// Each packet takes 1 ms to serialize, so the ack clock period is
	// 101 ms: expect 10*1500*8/0.101 = ~1.188 Mbps.
	want := 10 * 1500 * 8 / 0.101
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("throughput = %.0f bps, want ~%.0f", got, want)
	}
	// No queueing to speak of.
	if st.AvgQueueingDelay() > 5*units.Millisecond {
		t.Fatalf("queueing delay = %v, want ~1ms serialization only", st.AvgQueueingDelay())
	}
	if st.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", st.Retransmits)
	}
}

func TestLinkLimitedThroughput(t *testing.T) {
	// Huge window saturates the link; throughput ~= link rate.
	q := queue.NewDropTail(queue.Unbounded)
	nw := buildDumbbell(12*units.Mbps, 100*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return &fixedCC{w: 2000} }, alwaysOn)
	st := nw.Run(30 * units.Second)[0]
	got := float64(st.Throughput())
	if got < 0.93*12e6 || got > 12.1e6 {
		t.Fatalf("throughput = %.0f bps, want ~12e6", got)
	}
	// Standing queue of ~2000-window minus BDP: delay far above prop.
	if st.AvgQueueingDelay() < 100*units.Millisecond {
		t.Fatalf("queueing delay = %v, expected a large standing queue", st.AvgQueueingDelay())
	}
}

func TestGoodputNeverExceedsLinkRate(t *testing.T) {
	q := queue.NewDropTail(10 * packet.MTU)
	nw := buildDumbbell(5*units.Mbps, 60*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return &fixedCC{w: 500} }, alwaysOn)
	st := nw.Run(20 * units.Second)[0]
	if float64(st.Throughput()) > 5e6*1.01 {
		t.Fatalf("goodput %.0f exceeds link rate", float64(st.Throughput()))
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	// Tiny buffer forces heavy loss; the receiver's cumulative point
	// must still advance with no holes, and goodput must be substantial.
	q := queue.NewDropTail(4 * packet.MTU)
	nw := buildDumbbell(8*units.Mbps, 40*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return &fixedCC{w: 50} }, alwaysOn)
	st := nw.Run(30 * units.Second)[0]
	if q.Stats().Drops() == 0 {
		t.Fatal("test needs drops to be meaningful")
	}
	if st.Retransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
	flow := nw.Flows[0]
	if flow.Receiver.Cum() < 500 {
		t.Fatalf("cumulative point only %d after 30s; transport stalled", flow.Receiver.Cum())
	}
	if st.DeliveredBytes != (flow.Receiver.Cum()+1)*packet.MTU {
		t.Fatalf("DeliveredBytes = %d, want %d (cum+1 packets)",
			st.DeliveredBytes, (flow.Receiver.Cum()+1)*packet.MTU)
	}
}

func TestFastRetransmitEngages(t *testing.T) {
	q := queue.NewDropTail(8 * packet.MTU)
	alg := &fixedCC{w: 60}
	nw := buildDumbbell(8*units.Mbps, 40*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return alg }, alwaysOn)
	st := nw.Run(20 * units.Second)[0]
	if alg.losses == 0 {
		t.Fatal("OnLoss never invoked despite drops")
	}
	// Most repair happens on the fast path: far more retransmissions
	// than RTO events. (A fixed window that never backs off does still
	// lose retransmissions themselves, and those legitimately fall
	// back to the timer.)
	if st.Retransmits < 2*st.Timeouts {
		t.Fatalf("retransmits (%d) vs timeouts (%d); fast path not doing the bulk of repair",
			st.Retransmits, st.Timeouts)
	}
}

func TestRTORecoversFromTotalLoss(t *testing.T) {
	// Buffer of one packet with a large burst: the burst beyond the
	// first packet is dropped and there are too few dupacks to fast
	// retransmit, so the RTO must fire.
	q := queue.NewDropTail(1 * packet.MTU)
	alg := &fixedCC{w: 5}
	nw := buildDumbbell(units.Mbps, 40*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return alg }, alwaysOn)
	st := nw.Run(20 * units.Second)[0]
	if st.Timeouts == 0 {
		t.Fatal("RTO never fired")
	}
	if nw.Flows[0].Receiver.Cum() < 100 {
		t.Fatalf("transport stalled: cum = %d", nw.Flows[0].Receiver.Cum())
	}
}

func TestPacingLimitsRate(t *testing.T) {
	// Window is huge but pacing allows one packet per 10 ms = 1.2 Mbps.
	q := queue.NewDropTail(queue.Unbounded)
	nw := buildDumbbell(100*units.Mbps, 100*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return &fixedCC{w: 1e5, pace: 10 * units.Millisecond} }, alwaysOn)
	st := nw.Run(30 * units.Second)[0]
	got := float64(st.Throughput())
	want := 1500 * 8 / 0.010
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("paced throughput = %.0f, want ~%.0f", got, want)
	}
	if st.AvgQueueingDelay() > 2*units.Millisecond {
		t.Fatalf("paced flow built a queue: %v", st.AvgQueueingDelay())
	}
}

func TestTwoIdenticalSendersShareFairly(t *testing.T) {
	// Buffer large enough that two window-80 flows (160 pkts inflight
	// vs 84-pkt BDP) never drop: FIFO service alone must split the
	// link evenly.
	q := queue.NewDropTail(200 * packet.MTU)
	nw := buildDumbbell(10*units.Mbps, 100*units.Millisecond, q, 2,
		func(int) cc.Algorithm { return &fixedCC{w: 80} }, alwaysOn)
	sts := nw.Run(60 * units.Second)
	t0, t1 := float64(sts[0].Throughput()), float64(sts[1].Throughput())
	sum := t0 + t1
	if sum < 0.9*10e6 {
		t.Fatalf("combined throughput %.0f too low", sum)
	}
	ratio := t0 / t1
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("unfair split: %.0f vs %.0f (ratio %.2f)", t0, t1, ratio)
	}
}

func TestOnOffAccounting(t *testing.T) {
	q := queue.NewDropTail(queue.Unbounded)
	wl := func(int) workload.Source {
		return &workload.Deterministic{
			InitialOn: true,
			Transitions: []workload.Transition{
				{At: units.Time(5 * units.Second), On: false},
				{At: units.Time(8 * units.Second), On: true},
			},
		}
	}
	nw := buildDumbbell(10*units.Mbps, 100*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return &fixedCC{w: 10} }, wl)
	st := nw.Run(10 * units.Second)[0]
	wantOn := 7 * units.Second // [0,5) + [8,10)
	if st.OnTime != wantOn {
		t.Fatalf("OnTime = %v, want %v", st.OnTime, wantOn)
	}
}

func TestOnOffStatsIdempotentFinalize(t *testing.T) {
	st := &FlowStats{}
	st.setOn(0, true)
	st.Finalize(units.Time(3 * units.Second))
	st.Finalize(units.Time(3 * units.Second))
	if st.OnTime != 3*units.Second {
		t.Fatalf("OnTime = %v after double finalize", st.OnTime)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (float64, units.Duration) {
		q := queue.NewDropTail(20 * packet.MTU)
		r := rng.New(99)
		wl := func(i int) workload.Source {
			return &workload.OnOff{MeanOn: units.Second, MeanOff: units.Second, Rng: r.SplitN("wl", i)}
		}
		nw := buildDumbbell(10*units.Mbps, 100*units.Millisecond, q, 2,
			func(int) cc.Algorithm { return &fixedCC{w: 30} }, wl)
		sts := nw.Run(30 * units.Second)
		return float64(sts[0].Throughput()) + float64(sts[1].Throughput()),
			sts[0].AvgDelay() + sts[1].AvgDelay()
	}
	tp1, d1 := run()
	tp2, d2 := run()
	if tp1 != tp2 || d1 != d2 {
		t.Fatalf("replay diverged: (%v,%v) vs (%v,%v)", tp1, d1, tp2, d2)
	}
}

func TestDelayIncludesPropagation(t *testing.T) {
	q := queue.NewDropTail(queue.Unbounded)
	nw := buildDumbbell(100*units.Mbps, 150*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return &fixedCC{w: 1} }, alwaysOn)
	st := nw.Run(10 * units.Second)[0]
	if st.AvgDelay() < 75*units.Millisecond {
		t.Fatalf("one-way delay %v below propagation 75ms", st.AvgDelay())
	}
	if st.AvgDelay() > 77*units.Millisecond {
		t.Fatalf("one-way delay %v too high for a window-1 flow", st.AvgDelay())
	}
}

func TestTwoHopPath(t *testing.T) {
	// One flow over two links in series; delay = both props + both
	// serializations; throughput limited by the slower link.
	nw := New()
	q1, q2 := queue.NewDropTail(queue.Unbounded), queue.NewDropTail(queue.Unbounded)
	l1 := nw.NewLink(20*units.Mbps, 75*units.Millisecond, q1)
	l2 := nw.NewLink(10*units.Mbps, 75*units.Millisecond, q2)
	st := &FlowStats{Flow: 0, PropDelay: 150 * units.Millisecond, MinRTT: 300 * units.Millisecond}
	rcv := nw.NewReceiver(0, 150*units.Millisecond, st)
	snd := NewSender(nw.Sched, 0, &fixedCC{w: 1000}, l1, st)
	rcv.SetSender(snd)
	l1.SetRoute([]Deliverer{l2})
	l2.SetRoute([]Deliverer{rcv})
	nw.AddFlow(&Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: workload.AlwaysOn{}})
	got := float64(nw.Run(30 * units.Second)[0].Throughput())
	if got < 0.9*10e6 || got > 10.1e6 {
		t.Fatalf("two-hop throughput = %.0f, want ~10e6 (slower link)", got)
	}
}

func TestSampleRecordsQueueOccupancy(t *testing.T) {
	q := queue.NewDropTail(queue.Unbounded)
	nw := buildDumbbell(5*units.Mbps, 100*units.Millisecond, q, 1,
		func(int) cc.Algorithm { return &fixedCC{w: 500} }, alwaysOn)
	var samples []int
	nw.Sample(100*units.Millisecond, func(now units.Time) {
		samples = append(samples, q.Len())
	})
	nw.Run(5 * units.Second)
	if len(samples) < 49 {
		t.Fatalf("got %d samples, want ~50", len(samples))
	}
	max := 0
	for _, s := range samples {
		if s > max {
			max = s
		}
	}
	if max < 100 {
		t.Fatalf("max sampled queue %d; expected a large standing queue", max)
	}
}

func TestLinkValidation(t *testing.T) {
	nw := New()
	q := queue.NewDropTail(queue.Unbounded)
	for _, fn := range []func(){
		func() { nw.NewLink(0, 0, q) },
		func() { nw.NewLink(units.Mbps, -1, q) },
		func() { nw.NewLink(units.Mbps, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSenderValidation(t *testing.T) {
	nw := New()
	q := queue.NewDropTail(queue.Unbounded)
	l := nw.NewLink(units.Mbps, 0, q)
	st := &FlowStats{}
	for _, fn := range []func(){
		func() { NewSender(nw.Sched, 0, nil, l, st) },
		func() { NewSender(nw.Sched, 0, &fixedCC{w: 1}, nil, st) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestReceiverRejectsMisrouted(t *testing.T) {
	nw := New()
	st := &FlowStats{}
	rcv := nw.NewReceiver(3, 0, st)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misrouted packet")
		}
	}()
	rcv.Deliver(0, nw.Pool.Data(4, 0, 0))
}
