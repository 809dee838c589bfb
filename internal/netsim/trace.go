package netsim

import (
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/units"
)

// PacketEventKind identifies what happened to a packet at a trace
// point.
type PacketEventKind uint8

// Packet lifecycle events emitted by traced links and receivers.
const (
	// TraceEnqueue: the packet was accepted by a link's ingress queue.
	TraceEnqueue PacketEventKind = iota
	// TraceDequeue: the packet left the queue and began serializing.
	TraceDequeue
	// TraceDropTail: the packet was dropped at enqueue time — a
	// rejected arrival or a fair-queueing victim eviction.
	TraceDropTail
	// TraceDropAQM: the packet was dropped by active queue management
	// at dequeue time (the CoDel control law).
	TraceDropAQM
	// TraceMarkCE: the packet was CE-marked instead of dropped.
	TraceMarkCE
	// TraceDeliver: the packet reached its flow's receiver.
	TraceDeliver
)

// String names the event kind for journals and debugging.
func (k PacketEventKind) String() string {
	switch k {
	case TraceEnqueue:
		return "enqueue"
	case TraceDequeue:
		return "dequeue"
	case TraceDropTail:
		return "drop_tail"
	case TraceDropAQM:
		return "drop_aqm"
	case TraceMarkCE:
		return "mark_ce"
	case TraceDeliver:
		return "deliver"
	}
	return "unknown"
}

// PacketEvent is one observation of a packet at a trace point. Values
// are copied out of the packet at emit time — the packet itself may be
// recycled as soon as the tracer returns, so the event retains no
// pointer into the simulation.
type PacketEvent struct {
	// Kind says what happened.
	Kind PacketEventKind
	// Time is the simulated time of the event.
	Time units.Time
	// Link is the traced link's identifier (its index in
	// Network.Links), or -1 for receiver deliver events.
	Link int
	// Flow is the packet's flow ID.
	Flow int
	// Seq is the packet's sequence number.
	Seq int64
	// ACK reports whether the packet is an ACK (reverse-path
	// congestion scenarios route ACKs through links).
	ACK bool
	// CE reports the packet's ECN congestion-experienced bit at the
	// instant of the event.
	CE bool
	// QueueLen is the link queue's occupancy in packets just after the
	// event (0 for deliver events).
	QueueLen int
	// QueueBytes is the occupancy in bytes just after the event.
	QueueBytes int
}

// PacketTracer consumes packet events. Tracers run synchronously on
// the simulation's hot path: they must not retain the event past the
// call, and — the telemetry invisibility invariant — must not mutate
// simulation state, so that traced and untraced runs stay bit-equal.
type PacketTracer func(ev PacketEvent)

// emit builds an event from the packet's current fields and the
// queue's current depth, and hands it to the tracer.
func (l *Link) emit(kind PacketEventKind, now units.Time, p *packet.Packet) {
	l.trace(PacketEvent{
		Kind:       kind,
		Time:       now,
		Link:       l.traceID,
		Flow:       p.Flow,
		Seq:        p.Seq,
		ACK:        p.IsACK,
		CE:         p.CE,
		QueueLen:   l.q.Len(),
		QueueBytes: l.q.Bytes(),
	})
}

// traceKind names the queue's events in the stream.
var traceKind = [...]PacketEventKind{
	queue.TailDrop: TraceDropTail,
	queue.AQMDrop:  TraceDropAQM,
	queue.CEMark:   TraceMarkCE,
	queue.Enqueued: TraceEnqueue,
}

// SetTrace installs (or, with a nil tracer, removes) a packet tracer
// on the link. The link emits dequeue events itself and observes its
// queueing discipline for the rest: the discipline states the kind —
// acceptance, tail drop (victim evictions included), AQM drop, CE mark
// — and the link stamps its identifier and the queue's depth. The
// discipline states an acceptance once it holds the packet, after any
// CE mark and victim evictions, which is where the enqueue event
// belongs in the stream; the packet it shows the observer is recycled
// as soon as Enqueue returns. This replaces any observer a previous
// caller installed. id is the identifier stamped into events
// (conventionally the link's index in Network.Links). Reinit clears the
// tracer, so recycled worlds start untraced.
func (l *Link) SetTrace(id int, t PacketTracer) {
	l.traceID, l.trace = id, t
	var obs queue.Observer
	if t != nil {
		obs = func(now units.Time, ev queue.Event, p *packet.Packet) {
			l.emit(traceKind[ev], now, p)
		}
	}
	l.q.Observe(obs)
}

// SetTrace installs (or removes) a packet tracer on the receiver,
// which emits one TraceDeliver event per arriving data packet.
func (r *Receiver) SetTrace(t PacketTracer) { r.trace = t }
