package netsim

import (
	"learnability/internal/packet"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// Receiver terminates a flow: it records delivery statistics and
// returns one cumulative ACK per arriving data packet. ACKs travel back
// over a delay-only reverse path (the paper's dumbbell and parking-lot
// reverse paths are uncongested; see docs/ARCHITECTURE.md, "One
// packet's life", step 6).
//
// The ACK path is allocation-free when a pool is attached: the data
// packet is recycled as soon as its ACK is built, pending ACKs ride the
// delay lane of the reverse path (its delay is constant, so they arrive
// in order; the lane is shared with every stage of equal delay, see
// Link), and the ACK itself is recycled after the sender has processed
// it.
type Receiver struct {
	sched    *sim.Scheduler
	flow     int
	sender   *Sender
	ackDelay units.Duration
	stats    *FlowStats
	pool     *packet.Pool

	cum int64 // highest in-order sequence received; -1 initially
	ooo *ringOoo

	// trace, when non-nil, receives a TraceDeliver event per arriving
	// data packet; nil in normal runs (one predictable branch).
	trace PacketTracer

	// ackLane is the lane of ackDelay in lanes, resolved when the
	// receiver is created and again by Reinit.
	lanes   *laneSet
	ackLane *lane
}

// NewReceiver creates a receiver for the given flow whose ACKs reach
// sender after ackDelay, on a bare scheduler with a lane set of its
// own; a network's receivers are created with Network.NewReceiver.
func NewReceiver(sched *sim.Scheduler, flow int, ackDelay units.Duration, stats *FlowStats) *Receiver {
	r := newReceiver(sched, flow, ackDelay, stats)
	r.setLanes(newLaneSet(sched))
	return r
}

// newReceiver creates a receiver whose lanes the caller still has to set.
func newReceiver(sched *sim.Scheduler, flow int, ackDelay units.Duration, stats *FlowStats) *Receiver {
	return &Receiver{
		sched:    sched,
		flow:     flow,
		ackDelay: ackDelay,
		stats:    stats,
		cum:      -1,
		ooo:      newRingOoo(),
	}
}

// setLanes resolves the reverse path's lane in ls.
func (r *Receiver) setLanes(ls *laneSet) {
	r.lanes = ls
	r.ackLane = ls.Lane(r.ackDelay)
}

// Reinit restores a receiver from a finished simulation to the
// just-constructed state with a new reverse-path delay, keeping the
// scheduler, flow ID, stats, pool, and sender bindings (the sender's
// identity is preserved across world recycling, so the reverse path
// stays wired). The reverse path's lane is resolved again in the lane
// set, whose Reset (see Network.Reset) has returned the ACKs still in
// flight to the pool.
func (r *Receiver) Reinit(ackDelay units.Duration) {
	r.ackDelay = ackDelay
	r.cum = -1
	r.ooo.reset()
	r.setLanes(r.lanes)
	r.trace = nil
}

// SetSender wires the reverse path. It must be called before traffic
// flows (topology builders do this).
func (r *Receiver) SetSender(s *Sender) { r.sender = s }

// SetPool attaches the simulation's packet pool, letting the receiver
// recycle delivered data packets and consumed ACKs.
func (r *Receiver) SetPool(p *packet.Pool) { r.pool = p }

// Cum reports the highest in-order sequence number received so far
// (-1 before any).
func (r *Receiver) Cum() int64 { return r.cum }

// Deliver implements Deliverer for arriving data packets.
func (r *Receiver) Deliver(now units.Time, p *packet.Packet) {
	if p.IsACK {
		panic("netsim: receiver got an ACK")
	}
	if p.Flow != r.flow {
		panic("netsim: packet misrouted to wrong receiver")
	}
	r.stats.Arrivals++
	r.stats.DelaySum += now.Sub(p.SentAt)

	switch {
	case p.Seq == r.cum+1:
		r.cum++
		r.stats.DeliveredBytes += int64(p.Size)
		for r.ooo.has(r.cum + 1) {
			r.ooo.remove(r.cum + 1)
			r.cum++
			r.stats.DeliveredBytes += int64(packet.MTU)
		}
		// Slide the ring's window so its capacity tracks the reorder
		// depth, not the total stream length.
		r.ooo.advance(r.cum + 1)
	case p.Seq > r.cum:
		r.stats.Reordered++
		r.ooo.add(p.Seq)
	default:
		// Duplicate of already-delivered data; ACK it anyway (the
		// cumulative ack re-synchronizes the sender).
	}

	if r.trace != nil {
		r.trace(PacketEvent{
			Kind: TraceDeliver,
			Time: now,
			Link: -1,
			Flow: p.Flow,
			Seq:  p.Seq,
			CE:   p.CE,
		})
	}
	ack := r.pool.ACK(p, r.cum, now)
	r.pool.Put(p) // data packet consumed
	r.ackLane.Push(hop{rcv: r, p: ack})
}

// deliverAck is the reverse path's hop: ack has reached the sender.
func (r *Receiver) deliverAck(ack *packet.Packet) {
	r.sender.OnAck(r.sched.Now(), ack)
	r.pool.Put(ack)
}
