package netsim

import "learnability/internal/units"

// FlowStats accumulates the per-flow measurements the paper's metrics
// are computed from: bytes successfully delivered, per-packet one-way
// delay, and time spent "on" (with offered load).
type FlowStats struct {
	Flow int // flow ID (index in the network's flow order)

	// DeliveredBytes counts bytes delivered in order to the receiver
	// (goodput: retransmitted copies of the same data count once).
	DeliveredBytes int64

	// Arrivals counts data packets arriving at the receiver, including
	// out-of-order and duplicate arrivals.
	Arrivals int64

	// DelaySum is the total one-way delay (propagation + queueing +
	// serialization) over all arrivals.
	DelaySum units.Duration

	// PropDelay is the flow's one-way propagation delay, so queueing
	// delay can be recovered from total delay.
	PropDelay units.Duration

	// MinRTT is the flow's minimum possible round-trip time.
	MinRTT units.Duration

	// OnTime is the total time the sender has been "on".
	OnTime units.Duration

	// SentPackets counts transmissions, including retransmissions.
	SentPackets int64

	// Retransmits counts transport-layer retransmissions.
	Retransmits int64

	// Timeouts counts RTO expirations.
	Timeouts int64

	// Reordered counts data packets that arrived ahead of the receiver's
	// cumulative frontier (sequence gaps at arrival time). Per-packet
	// multipath policies like SPRAY induce these by design; the
	// reordering stress tests assert the counter is non-zero so the
	// scoreboard comparisons are known to be non-vacuous.
	Reordered int64

	onSince units.Time
	isOn    bool
}

// Reset restores the zero-measurement state for a recycled world,
// re-stamping the identity and delay geometry that topo.World.Rebuild
// derives from the new run's topology.
func (s *FlowStats) Reset(flow int, prop, minRTT units.Duration) {
	*s = FlowStats{Flow: flow, PropDelay: prop, MinRTT: minRTT}
}

// setOn records an on/off transition at time now.
func (s *FlowStats) setOn(now units.Time, on bool) {
	if on == s.isOn {
		return
	}
	if on {
		s.onSince = now
	} else {
		s.OnTime += now.Sub(s.onSince)
	}
	s.isOn = on
}

// Finalize closes the books at the end of a simulation.
func (s *FlowStats) Finalize(now units.Time) {
	if s.isOn {
		s.OnTime += now.Sub(s.onSince)
		s.isOn = false
		s.onSince = now
	}
}

// Throughput is the paper's §3.2 definition: bytes successfully
// delivered divided by total time the sender was on. It returns 0 for a
// flow that was never on.
func (s *FlowStats) Throughput() units.Rate {
	return units.RateFromBytes(s.DeliveredBytes, s.OnTime)
}

// AvgDelay is the average per-packet one-way delay, including
// propagation. It returns the propagation delay if no packet arrived.
func (s *FlowStats) AvgDelay() units.Duration {
	if s.Arrivals == 0 {
		return s.PropDelay
	}
	return units.Duration(int64(s.DelaySum) / s.Arrivals)
}

// AvgQueueingDelay is the average per-packet delay in excess of
// propagation (queueing plus serialization).
func (s *FlowStats) AvgQueueingDelay() units.Duration {
	d := s.AvgDelay() - s.PropDelay
	if d < 0 {
		return 0
	}
	return d
}
