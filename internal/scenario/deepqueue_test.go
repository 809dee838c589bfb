package scenario

import (
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/netsim"
	"learnability/internal/packet"
	"learnability/internal/rng"
	"learnability/internal/units"
)

// TestDeepQueueHoldsNoPoolPackets pins where packets live: a queue
// holds what it accepts by value, so a pool packet exists only on a
// delay lane or inside a handler. A 1 Gbps, 150 ms, 5-BDP dumbbell
// fills its gateway past 10 000 packets, yet its pool may make no more
// packets than the lanes ever held at once, plus a handful for the
// handlers in progress; and the lanes, read at every packet event,
// never hold more than the path's bandwidth-delay product (data in
// propagation and ACKs on the reverse path) and a packet on the
// serializer. A queue of pool packets overshoots both by its depth.
func TestDeepQueueHoldsNoPoolPackets(t *testing.T) {
	spec := Spec{
		Topology:  Dumbbell,
		LinkSpeed: units.Gbps,
		MinRTT:    150 * units.Millisecond,
		Buffering: FiniteDropTail,
		BufferBDP: 5,
		MeanOn:    100 * units.Second,
		MeanOff:   units.Millisecond,
		Duration:  3 * units.Second,
		Seed:      rng.New(1),
		Senders:   []Sender{{Alg: cubic.New(), Delta: 1}, {Alg: cubic.New(), Delta: 1}},
	}
	var nw *netsim.Network
	var peakLanes, peakQueue int
	spec.Trace = func(netsim.PacketEvent) {
		peakLanes = max(peakLanes, nw.Packets())
		peakQueue = max(peakQueue, nw.Links[0].Queue().Len())
	}
	nw, _ = mustBuild(spec)
	Finish(spec, nw)

	if peakQueue < 10000 {
		t.Fatalf("the gateway queue peaked at %d packets, want a deep queue of at least 10 000", peakQueue)
	}
	if bdp := (units.BDPBytes(spec.LinkSpeed, spec.MinRTT) + packet.MTU - 1) / packet.MTU; peakLanes > bdp+1 {
		t.Fatalf("the network held %d pool packets at once, more than the %d a bandwidth-delay product and a serializer hold",
			peakLanes, bdp+1)
	}
	const slack = 16
	if made := nw.Pool.Gets - nw.Pool.Reuses; made > int64(peakLanes+slack) {
		t.Fatalf("the pool made %d packets; the lanes held at most %d at once and the queue %d, want at most %d",
			made, peakLanes, peakQueue, peakLanes+slack)
	}
}
