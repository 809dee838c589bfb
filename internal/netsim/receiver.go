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
// The ACK path is allocation-free: the data packet is recycled as soon
// as its ACK is built, pending ACKs ride the delay lane of the reverse
// path (its delay is constant, so they arrive in order; the lane is
// shared with every stage of equal delay, see Link), and the ACK itself
// is recycled after the sender has processed it.
type Receiver struct {
	sched    *sim.Scheduler
	flow     int
	sender   *Sender
	ackDelay units.Duration
	stats    *FlowStats
	pool     *packet.Pool

	cum int64 // highest in-order sequence received; -1 initially
	// ooo marks the sequences above cum that have arrived: the sender's
	// scoreboard ring, where any flag set means present.
	ooo *ringScoreboard

	// trace, when non-nil, receives a TraceDeliver event per arriving
	// data packet; nil in normal runs (one predictable branch).
	trace PacketTracer

	// ackLane is the lane of ackDelay in lanes, resolved by Reinit.
	lanes   *laneSet
	ackLane *lane
}

// Reinit sets a receiver's per-run state: its reverse-path delay, no
// data received yet, an empty reorder ring (which keeps the capacity it
// grew to) and no tracer. Network.NewReceiver ends with it, and a
// recycled world calls it for the next run, keeping the scheduler, flow
// ID, stats, pool, and sender bindings (the sender's identity is
// preserved across world recycling, so the reverse path stays wired).
// The reverse path's lane is resolved again in the lane set, whose Reset
// (see Network.Reset) has returned the ACKs still in flight to the pool.
func (r *Receiver) Reinit(ackDelay units.Duration) {
	r.ackDelay = ackDelay
	r.cum = -1
	r.ooo.reset(0)
	r.ackLane = r.lanes.Lane(ackDelay)
	r.trace = nil
}

// SetSender wires the reverse path. It must be called before traffic
// flows (topology builders do this).
func (r *Receiver) SetSender(s *Sender) { r.sender = s }

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
		for r.ooo.get(r.cum+1) != 0 {
			r.cum++
			r.stats.DeliveredBytes += int64(packet.MTU)
		}
		// Slide the ring's window past what was delivered, zeroing it,
		// so its capacity tracks the reorder depth, not the total stream
		// length.
		r.ooo.advance(r.cum + 1)
	case p.Seq > r.cum:
		r.stats.Reordered++
		r.ooo.or(p.Seq, sbSacked)
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
