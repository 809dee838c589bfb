package netsim

import (
	"testing"

	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// captureSink records arrival times at the end of a link.
type captureSink struct {
	arrivals []units.Time
	pkts     []*packet.Packet
	sched    *sim.Scheduler
}

func (c *captureSink) Deliver(now units.Time, p *packet.Packet) {
	c.arrivals = append(c.arrivals, now)
	c.pkts = append(c.pkts, p)
}

func TestLinkSerializationPlusPropagation(t *testing.T) {
	nw := New()
	sched := nw.Sched
	sink := &captureSink{sched: sched}
	// 12 Mbps: one 1500-byte packet serializes in exactly 1 ms.
	l := nw.NewLink(12*units.Mbps, 50*units.Millisecond, queue.NewDropTail(queue.Unbounded))
	l.SetRoute([]Deliverer{sink})
	sched.At(0, func() { l.Deliver(0, nw.Pool.Data(0, 0, 0)) })
	sched.Run(units.MaxTime)
	if len(sink.arrivals) != 1 {
		t.Fatalf("arrivals = %d", len(sink.arrivals))
	}
	want := units.Time(51 * units.Millisecond) // 1 ms tx + 50 ms prop
	if sink.arrivals[0] != want {
		t.Fatalf("arrival at %v, want %v", sink.arrivals[0], want)
	}
}

func TestLinkPipelinesSerializationWithPropagation(t *testing.T) {
	// Two back-to-back packets: the second starts serializing as soon
	// as the first finishes, not after the first's propagation.
	nw := New()
	sched := nw.Sched
	sink := &captureSink{sched: sched}
	l := nw.NewLink(12*units.Mbps, 50*units.Millisecond, queue.NewDropTail(queue.Unbounded))
	l.SetRoute([]Deliverer{sink})
	sched.At(0, func() {
		l.Deliver(0, nw.Pool.Data(0, 0, 0))
		l.Deliver(0, nw.Pool.Data(0, 1, 0))
	})
	sched.Run(units.MaxTime)
	if len(sink.arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(sink.arrivals))
	}
	if got := sink.arrivals[1]; got != units.Time(52*units.Millisecond) {
		t.Fatalf("second arrival at %v, want 52ms (pipelined)", got)
	}
	// Spacing on the wire equals the serialization time.
	if gap := sink.arrivals[1].Sub(sink.arrivals[0]); gap != units.Millisecond {
		t.Fatalf("inter-arrival gap = %v, want 1ms", gap)
	}
}

func TestLinkPreservesOrderWithinFlow(t *testing.T) {
	nw := New()
	sched := nw.Sched
	sink := &captureSink{sched: sched}
	l := nw.NewLink(units.Mbps, units.Millisecond, queue.NewDropTail(queue.Unbounded))
	l.SetRoute([]Deliverer{sink})
	sched.At(0, func() {
		for i := int64(0); i < 20; i++ {
			l.Deliver(0, nw.Pool.Data(0, i, 0))
		}
	})
	sched.Run(units.MaxTime)
	for i, p := range sink.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d; link reordered", i, p.Seq)
		}
	}
}

func TestLinkRoutesPerFlow(t *testing.T) {
	nw := New()
	sched := nw.Sched
	a := &captureSink{sched: sched}
	b := &captureSink{sched: sched}
	l := nw.NewLink(10*units.Mbps, 0, queue.NewDropTail(queue.Unbounded))
	l.SetRoute([]Deliverer{nil, a, b})
	sched.At(0, func() {
		l.Deliver(0, nw.Pool.Data(1, 0, 0))
		l.Deliver(0, nw.Pool.Data(2, 0, 0))
	})
	sched.Run(units.MaxTime)
	if len(a.pkts) != 1 || a.pkts[0].Flow != 1 {
		t.Fatalf("sink a got %v", a.pkts)
	}
	if len(b.pkts) != 1 || b.pkts[0].Flow != 2 {
		t.Fatalf("sink b got %v", b.pkts)
	}
}

func TestLinkIdleRestarts(t *testing.T) {
	// A packet long after the first must still be transmitted (the
	// link must wake from idle).
	nw := New()
	sched := nw.Sched
	sink := &captureSink{sched: sched}
	l := nw.NewLink(12*units.Mbps, 0, queue.NewDropTail(queue.Unbounded))
	l.SetRoute([]Deliverer{sink})
	sched.At(0, func() { l.Deliver(0, nw.Pool.Data(0, 0, 0)) })
	sched.At(units.Time(units.Second), func() { l.Deliver(sched.Now(), nw.Pool.Data(0, 1, 0)) })
	sched.Run(units.MaxTime)
	if len(sink.arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(sink.arrivals))
	}
	if sink.arrivals[1] != units.Time(units.Second+units.Millisecond) {
		t.Fatalf("second arrival at %v", sink.arrivals[1])
	}
}

func TestLinkAccessors(t *testing.T) {
	nw := New()
	q := queue.NewDropTail(queue.Unbounded)
	l := nw.NewLink(7*units.Mbps, 9*units.Millisecond, q)
	if l.Rate() != 7*units.Mbps || l.Prop() != 9*units.Millisecond || l.Queue() != queue.Discipline(q) {
		t.Fatal("accessors wrong")
	}
}

func TestReceiverOutOfOrderDelivery(t *testing.T) {
	nw := New()
	sched := nw.Sched
	st := &FlowStats{Flow: 0}
	rcv := nw.NewReceiver(0, 10*units.Millisecond, st)
	// The receiver's ACKs go to a sender that never sends: a capture
	// egress and a zero-window algorithm.
	out := &captureEgress{}
	sink := NewSender(sched, 0, &fixedCC{w: 0}, out, &FlowStats{})
	rcv.SetSender(sink)

	deliver := func(seq int64, at units.Duration) {
		sched.At(units.Time(at), func() {
			rcv.Deliver(sched.Now(), nw.Pool.Data(0, seq, 0))
		})
	}
	// Arrivals: 0, 2, 3 (hole at 1), then 1 fills the hole.
	deliver(0, 1*units.Millisecond)
	deliver(2, 2*units.Millisecond)
	deliver(3, 3*units.Millisecond)
	sched.Run(units.Time(5 * units.Millisecond))
	if rcv.Cum() != 0 {
		t.Fatalf("cum = %d with hole at 1", rcv.Cum())
	}
	deliver(1, 6*units.Millisecond)
	sched.Run(units.Time(20 * units.Millisecond))
	if rcv.Cum() != 3 {
		t.Fatalf("cum = %d after hole filled, want 3", rcv.Cum())
	}
	if st.DeliveredBytes != 4*packet.MTU {
		t.Fatalf("DeliveredBytes = %d, want %d", st.DeliveredBytes, 4*packet.MTU)
	}
	if st.Arrivals != 4 {
		t.Fatalf("Arrivals = %d", st.Arrivals)
	}
}

func TestReceiverDuplicateDoesNotDoubleCount(t *testing.T) {
	nw := New()
	sched := nw.Sched
	st := &FlowStats{Flow: 0}
	rcv := nw.NewReceiver(0, 0, st)
	out := &captureEgress{}
	rcv.SetSender(NewSender(sched, 0, &fixedCC{w: 0}, out, &FlowStats{}))
	rcv.Deliver(0, nw.Pool.Data(0, 0, 0))
	rcv.Deliver(0, nw.Pool.Data(0, 0, 0)) // duplicate
	sched.Run(units.MaxTime)
	if st.DeliveredBytes != packet.MTU {
		t.Fatalf("DeliveredBytes = %d; duplicate counted", st.DeliveredBytes)
	}
	if st.Arrivals != 2 {
		t.Fatalf("Arrivals = %d; duplicates still arrive", st.Arrivals)
	}
	if rcv.Cum() != 0 {
		t.Fatalf("cum = %d", rcv.Cum())
	}
}

func TestReceiverPanicsOnACK(t *testing.T) {
	rcv := New().NewReceiver(0, 0, &FlowStats{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rcv.Deliver(0, &packet.Packet{Flow: 0, IsACK: true})
}

// TestLinkReinitReturnsEveryPacket pins the run-boundary leak: every
// pool packet a finished run left inside a network's links — on a
// serializer, or in propagation on a lane the links share — goes back
// to the pool when the network is reset and its links reinitialized,
// whether a link keeps its queue or is handed another, while what a
// gateway queued (values, not pool packets) is simply forgotten; and
// the kept next-hop tables serve the next run.
func TestLinkReinitReturnsEveryPacket(t *testing.T) {
	for _, keep := range []bool{true, false} {
		nw := New()
		pool := nw.Pool
		sink := &countSink{pool: pool}
		// Two links in series, both 12 Mbps and 3 ms long: a packet
		// serializes in 1 ms, so 9.5 ms in, two packets are through, each
		// link has three in propagation — on one lane between them — and
		// one on its serializer, and the first still has a queue.
		var qs [2]queue.Discipline
		var ls [2]*Link
		for i := range ls {
			qs[i] = queue.NewSFQCoDel(queue.SFQCoDelBins, 64*packet.MTU)
			ls[i] = nw.NewLink(12*units.Mbps, 3*units.Millisecond, qs[i])
		}
		ls[0].SetRoute([]Deliverer{ls[1], ls[1]})
		ls[1].SetRoute([]Deliverer{sink, sink})
		const n = 20
		for i := 0; i < n; i++ {
			ls[0].Deliver(0, pool.Data(i%2, int64(i), 0))
		}
		nw.Sched.Run(units.Time(0).Add(9500 * units.Microsecond))
		if nw.Lanes() != 2 || sink.n == 0 || qs[0].Len() == 0 || ls[0].InFlight() <= qs[0].Len()+1 || ls[1].InFlight() < 2 {
			t.Fatalf("want two lanes and packets delivered, queued and in propagation on both links; got %d lanes, %d delivered, %d queued, %d and %d in flight",
				nw.Lanes(), sink.n, qs[0].Len(), ls[0].InFlight(), ls[1].InFlight())
		}
		held := n - sink.n
		made := pool.Gets - pool.Reuses

		nw.Reset()
		for i, l := range ls {
			next := qs[i]
			if !keep {
				next = queue.NewDropTail(64 * packet.MTU)
			}
			l.Reinit(12*units.Mbps, 3*units.Millisecond, next)
			if l.InFlight() != 0 || qs[i].Len() != 0 {
				t.Fatalf("keep=%v: %d packets still in link %d, %d in its old queue", keep, l.InFlight(), i, qs[i].Len())
			}
		}
		// Every packet the pool made is back: the next made come off
		// the free list.
		for i := int64(0); i < made; i++ {
			pool.Get()
		}
		if pool.Reuses != made {
			t.Fatalf("keep=%v: the pool holds %d of the %d packets it made (%d of the run's %d were in the links)", keep, pool.Reuses, made, held, n)
		}

		sink.n = 0
		ls[0].Deliver(0, pool.Data(1, 0, 0))
		nw.Sched.Run(units.MaxTime)
		if in, out := ls[1].Counts(); sink.n != 1 || in != 1 || out != 1 {
			t.Fatalf("keep=%v: reinitialized links delivered %d (in %d, out %d), want 1", keep, sink.n, in, out)
		}
	}
}
