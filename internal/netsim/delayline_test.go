package netsim

import (
	"testing"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// perPacketLine is the scheduling this repository used to ship and the
// oracle for sim.Pipe: a FIFO of packets with one scheduler event per
// packet in flight, each drawing its insertion number from At at push
// time. It keeps the heap at O(packets in flight), which is why it does
// not ship; the tests below install it through Link.propQ and
// Receiver.ackQ.
type perPacketLine struct {
	sched *sim.Scheduler
	fn    func(*packet.Packet)
	q     []*packet.Packet
	fire  func()
}

func newPerPacketLine(sched *sim.Scheduler, fn func(*packet.Packet)) *perPacketLine {
	l := &perPacketLine{sched: sched, fn: fn}
	l.fire = func() {
		p := l.q[0]
		l.q = l.q[1:]
		l.fn(p)
	}
	return l
}

func (l *perPacketLine) Push(at units.Time, p *packet.Packet) {
	l.q = append(l.q, p)
	l.sched.At(at, l.fire)
}

func (l *perPacketLine) Len() int { return len(l.q) }

// Drain is only valid once the scheduler has been Reset (the line holds
// no handles to its events), which is when Reinit calls it.
func (l *perPacketLine) Drain(into sim.Sink[*packet.Packet]) {
	for _, p := range l.q {
		into.Put(p)
	}
	l.q = l.q[:0]
}

// perPacket swaps every delay line of a freshly built network for the
// per-packet oracle.
func perPacket(nw *Network) *Network {
	for _, l := range nw.Links {
		l.propQ = newPerPacketLine(l.sched, l.arrive)
	}
	for _, f := range nw.Flows {
		r := f.Receiver
		r.ackQ = newPerPacketLine(r.sched, r.deliverAck)
	}
	return nw
}

// traceAll records every packet event of a network, in order.
func traceAll(nw *Network) *[]PacketEvent {
	evs := new([]PacketEvent)
	rec := func(ev PacketEvent) { *evs = append(*evs, ev) }
	for i, l := range nw.Links {
		l.SetTrace(i, rec)
	}
	for _, f := range nw.Flows {
		f.Receiver.SetTrace(rec)
	}
	return evs
}

// runBothLines runs build's network on sim.Pipe and on the per-packet
// oracle and requires identical FlowStats in every field and an
// identical packet-event sequence. It also requires that the oracle
// really was the O(packets) scheduling — a deeper heap than the pipe's
// — so a seam that silently stopped swapping fails here. It returns the
// pipe run's stats for the caller's own non-vacuity check.
func runBothLines(t *testing.T, build func() *Network) []*FlowStats {
	t.Helper()
	const dur = 10 * units.Second
	piped := build()
	pipedEvs := traceAll(piped)
	got := piped.Run(dur)

	ref := perPacket(build())
	refEvs := traceAll(ref)
	want := ref.Run(dur)

	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("flow %d:\npipe       %+v\nper-packet %+v", i, *got[i], *want[i])
		}
	}
	if len(*pipedEvs) != len(*refEvs) {
		t.Fatalf("%d packet events on pipes, %d per-packet", len(*pipedEvs), len(*refEvs))
	}
	for i, ev := range *pipedEvs {
		if ev != (*refEvs)[i] {
			t.Fatalf("packet event %d:\npipe       %+v\nper-packet %+v", i, ev, (*refEvs)[i])
		}
	}
	// c: an on/off switch per flow and the variable-rate case's sampler.
	bound := 2*len(piped.Links) + 3*len(piped.Flows) + len(piped.Flows) + 1
	if hw, rhw := piped.Sched.HighWater(), ref.Sched.HighWater(); hw > bound || rhw <= bound {
		t.Fatalf("heap high-water %d on pipes, %d per-packet; want the first within 2·links + 3·flows + c = %d and the second beyond it",
			hw, rhw, bound)
	}
	return got
}

// TestPipeMatchesPerPacketScheduling is the end-to-end proof that
// coalescing a delay line into one heap entry changes nothing a
// simulation can observe: the shared differential networks, plus a link
// whose rate is switched down and up mid-run (serialization times, and
// with them the spacing of pushes, change under packets in flight).
func TestPipeMatchesPerPacketScheduling(t *testing.T) {
	for _, tc := range diffNets() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				var exercised int64
				for _, st := range runBothLines(t, func() *Network { return tc.build(seed) }) {
					exercised += tc.nonzero(st)
				}
				if exercised == 0 {
					t.Fatalf("seed %d: case never exercised what it is named for; comparison is vacuous", seed)
				}
			}
		})
	}
	t.Run("variable-rate", func(t *testing.T) {
		for seed := uint64(1); seed <= 3; seed++ {
			var flips, busyFlips int
			runBothLines(t, func() *Network {
				nw := buildDumbbell(8*units.Mbps, 40*units.Millisecond,
					queue.NewDropTail(32*packet.MTU), 2, mixedCC, onOff(seed))
				l := nw.Links[0]
				flips, busyFlips = 0, 0
				nw.Sample(130*units.Millisecond, func(units.Time) {
					if l.propQ.Len() > 0 {
						busyFlips++
					}
					if flips++; flips%2 == 1 {
						l.SetRate(units.Mbps)
					} else {
						l.SetRate(8 * units.Mbps)
					}
				})
				return nw
			})
			if flips < 2 || busyFlips == 0 {
				t.Fatalf("seed %d: %d rate switches, %d with packets in propagation; comparison is vacuous", seed, flips, busyFlips)
			}
		}
	})
}

// TestPipeBoundsSaturatedDumbbell pins the O(links + flows) claim as a
// count on the shape that motivated it: a 1 Gbps / 150 ms dumbbell kept
// saturated holds ~12 500 packets in flight, and the scheduler never
// holds more than a serializer and a pipe per link plus a pipe, an RTO
// and a pacing timer per flow.
func TestPipeBoundsSaturatedDumbbell(t *testing.T) {
	const flows = 2
	nw := buildDumbbell(units.Gbps, 150*units.Millisecond,
		queue.NewDropTail(12500*packet.MTU), flows,
		func(int) cc.Algorithm { return cubic.New() }, alwaysOn)
	inFlight := 0
	nw.Sample(100*units.Millisecond, func(units.Time) {
		inFlight = max(inFlight, nw.Links[0].InFlight())
	})
	var delivered int64
	for _, st := range nw.Run(5 * units.Second) {
		delivered += st.DeliveredBytes
	}
	if inFlight < 5000 || delivered < 100e6 {
		t.Fatalf("pipe never filled: %d packets in flight at most, %d bytes delivered", inFlight, delivered)
	}
	// +1: the sampler's own event.
	if hw, bound := nw.Sched.HighWater(), 2*len(nw.Links)+3*flows+1; hw > bound {
		t.Fatalf("heap high-water %d with %d packets in flight; want ≤ 2·links + 3·flows + 1 = %d", hw, inFlight, bound)
	}
}
