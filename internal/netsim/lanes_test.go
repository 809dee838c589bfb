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

// perPacketLanes is the scheduling this repository used to ship — one
// scheduler entry per packet in flight, keyed at the moment its delay
// begins — and the oracle for the delay lanes that replaced it. A lane is
// a concrete type the hot path calls directly, so there is no Push to
// intercept; the oracle instead sees to it that every Push lands on a
// lane that is empty and that no other stage pushes onto, where it is a
// sim.After in all but name: a value alone on its lane is stamped and
// entered into the heap at once. A serializer holds one packet at a time,
// so a lane set per link does that for the serializers. Propagation and
// reverse paths hold many, so each link and receiver gets lanes of its
// own as they are needed, and the oracle's handler — every Push onto a
// propagation lane happens inside a serializer's hop, every Push onto a
// reverse path inside the hop that delivers the data packet — points the
// stage at one that is empty before it lets the hop run. It keeps the
// heap at O(packets in flight), which is why it does not ship.
type perPacketLanes struct {
	nw   *Network
	prop map[*Link][]*lane
	ack  map[*Receiver][]*lane
}

// perPacket swaps the lanes of a freshly built network, all three kinds
// of stage at once, for the per-packet oracle.
func perPacket(nw *Network) *Network {
	o := &perPacketLanes{nw: nw, prop: map[*Link][]*lane{}, ack: map[*Receiver][]*lane{}}
	for _, l := range nw.Links {
		l.lanes = sim.NewLanes(nw.Sched, o.fire)
		l.Reinit(l.rate, l.prop, l.q)
	}
	return nw
}

// fire is the handler of every lane of the oracle.
func (o *perPacketLanes) fire(h hop) {
	switch {
	case h.rcv != nil: // an ACK reaching its sender pushes no hop
	case h.p == nil:
		l := h.link
		o.prop[l], l.propLane = o.emptyLane(o.prop[l], l.prop)
	default: // the next hop may be the flow's receiver
		r := o.nw.Flows[h.p.Flow].Receiver
		o.ack[r], r.ackLane = o.emptyLane(o.ack[r], r.ackDelay)
	}
	fireHop(h)
}

// emptyLane picks an empty lane among a stage's own, adding one of the
// stage's delay d (in a set of its own, so it is shared with nothing) if
// all are in flight.
func (o *perPacketLanes) emptyLane(own []*lane, d units.Duration) ([]*lane, *lane) {
	for _, ln := range own {
		if ln.Len() == 0 {
			return own, ln
		}
	}
	ln := sim.NewLanes(o.nw.Sched, o.fire).Lane(d)
	return append(own, ln), ln
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

// runBothLines runs build's network on delay lanes and on the per-packet
// oracle and requires identical FlowStats in every field and an
// identical packet-event sequence. It also requires that the oracle
// really was the O(packets) scheduling — a deeper heap than the lanes'
// bound — so an oracle that silently stopped swapping fails here. It
// returns the lane run's network and stats for the caller's own
// non-vacuity checks.
func runBothLines(t *testing.T, build func() *Network) (*Network, []*FlowStats) {
	t.Helper()
	const dur = 10 * units.Second
	laned := build()
	lanedEvs := traceAll(laned)
	got := laned.Run(dur)

	ref := perPacket(build())
	refEvs := traceAll(ref)
	want := ref.Run(dur)

	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("flow %d:\nlanes      %+v\nper-packet %+v", i, *got[i], *want[i])
		}
	}
	if len(*lanedEvs) != len(*refEvs) {
		t.Fatalf("%d packet events on lanes, %d per-packet", len(*lanedEvs), len(*refEvs))
	}
	for i, ev := range *lanedEvs {
		if ev != (*refEvs)[i] {
			t.Fatalf("packet event %d:\nlanes      %+v\nper-packet %+v", i, ev, (*refEvs)[i])
		}
	}
	// A lane per distinct delay; an RTO, a pacing timer and an on/off
	// switch per flow; +1: the variable-rate case's sampler.
	bound := laned.Lanes() + 3*len(laned.Flows) + 1
	hw, rhw := laned.Sched.HighWater(), ref.Sched.HighWater()
	if hw > bound || rhw <= bound {
		t.Fatalf("heap high-water %d on lanes, %d per-packet; want the first within lanes + 3·flows + 1 = %d and the second beyond it",
			hw, rhw, bound)
	}
	t.Logf("%d links, %d flows, %d lanes: heap high-water %d (bound %d), %d per-packet",
		len(laned.Links), len(laned.Flows), laned.Lanes(), hw, bound, rhw)
	return laned, got
}

// TestPipeMatchesPerPacketScheduling is the end-to-end proof that
// coalescing every stage of one delay into one heap entry changes
// nothing a simulation can observe: the shared differential networks —
// among them a parking lot whose equal-rate hops share their lanes — plus
// two links whose rates are switched between the same two values mid-run,
// out of step, so that each keeps leaving the lane the other is on and
// joining it again with a transmission in flight on the one it left.
func TestPipeMatchesPerPacketScheduling(t *testing.T) {
	for _, tc := range diffNets() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				var exercised int64
				nw, stats := runBothLines(t, func() *Network { return tc.build(seed) })
				for _, st := range stats {
					exercised += tc.nonzero(st)
				}
				if exercised == 0 {
					t.Fatalf("seed %d: case never exercised what it is named for; comparison is vacuous", seed)
				}
				if stages := 2*len(nw.Links) + len(nw.Flows); tc.shared && nw.Lanes() >= stages/2 {
					t.Fatalf("seed %d: %d lanes for %d stages; the case is there to share them", seed, nw.Lanes(), stages)
				}
			}
		})
	}
	t.Run("variable-rate", func(t *testing.T) {
		for seed := uint64(1); seed <= 3; seed++ {
			// Counted on the lane run alone, the first of the two builds:
			// the oracle's links never share.
			var flips, busyFlips, together, builds int
			nw, _ := runBothLines(t, func() *Network {
				nw := buildParkingLot([]units.Rate{8 * units.Mbps, 8 * units.Mbps}, 20*units.Millisecond,
					32*packet.MTU, mixedCC, onOff(seed))
				builds++
				laned, n := builds == 1, 0
				nw.Sample(130*units.Millisecond, func(units.Time) {
					l := nw.Links[n%2] // the links take turns, so half the time their rates differ
					n++
					if l.rate == 8*units.Mbps {
						l.SetRate(units.Mbps)
					} else {
						l.SetRate(8 * units.Mbps)
					}
					if !laned {
						return
					}
					flips++
					if l.busy {
						busyFlips++
					}
					if nw.Links[0].txLane == nw.Links[1].txLane {
						together++
					}
				})
				return nw
			})
			if flips < 4 || busyFlips == 0 || together == 0 || together == flips {
				t.Fatalf("seed %d: %d rate switches, %d mid-transmission, %d leaving the links on one lane; comparison is vacuous",
					seed, flips, busyFlips, together)
			}
			if nw.Lanes() > 5 { // two serialization times, the hop delay, two reverse paths
				t.Fatalf("seed %d: %d lanes after %d switches between two rates; lanes are keyed by something besides their delay", seed, nw.Lanes(), flips)
			}
		}
	})
}

// TestPipeBoundsSaturatedDumbbell pins the O(distinct delays + flows)
// claim as a count on the shape that motivated coalescing: a 1 Gbps /
// 150 ms dumbbell kept saturated holds ~12 500 packets in flight, and the
// scheduler never holds more than a lane per delay plus an RTO and a
// pacing timer per flow.
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
	// Two lanes (serialization; propagation and reverse path are both
	// 75 ms); +1: the sampler's own event.
	hw, bound := nw.Sched.HighWater(), nw.Lanes()+2*flows+1
	if nw.Lanes() != 2 || hw > bound {
		t.Fatalf("%d lanes, heap high-water %d with %d packets in flight; want 2 lanes and ≤ lanes + 2·flows + 1 = %d",
			nw.Lanes(), hw, inFlight, bound)
	}
	t.Logf("heap high-water %d (bound %d) with %d packets in flight", hw, bound, inFlight)
}
