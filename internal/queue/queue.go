// Package queue implements the gateway queueing disciplines used in the
// paper's experiments: drop-tail FIFOs with finite or infinite buffers
// (all training scenarios and most testing scenarios), and sfqCoDel
// (stochastic fair queueing over CoDel sub-queues), which the paper runs
// at bottleneck gateways for its Cubic-over-sfqCoDel baseline.
package queue

import (
	"learnability/internal/packet"
	"learnability/internal/units"
)

// Discipline is a queueing discipline attached to the sending side of a
// link. Enqueue is called when a packet arrives at the gateway; it
// reports whether the packet was accepted (false means dropped on
// arrival). Dequeue is called by the link when it is ready to transmit;
// it returns nil when no packet is available. Disciplines may also drop
// at dequeue time (CoDel does); such drops are visible in Stats.
//
// Len and Bytes are O(1) by contract: every discipline keeps running
// counters beside its storage. The adaptive router reads a candidate's
// Len for every packet it forwards, so an occupancy query that walks
// the queue would put the queue's size into the per-packet cost of
// every upstream link.
type Discipline interface {
	// Enqueue offers an arriving packet; false means dropped on
	// arrival.
	Enqueue(now units.Time, p *packet.Packet) bool
	// Dequeue hands the next packet to the link, or nil when none is
	// available.
	Dequeue(now units.Time) *packet.Packet
	// Len is the number of packets currently queued, in O(1).
	Len() int
	// Bytes is the number of bytes currently queued, in O(1).
	Bytes() int
	// Stats reports the discipline's accept/drop counters.
	Stats() Stats
	// Reset returns the discipline to the state its constructor left
	// it in — empty, zero Stats, control law at rest, no drop or mark
	// recorder — keeping its configuration (capacity, thresholds,
	// marking mode, attached pool) and the storage it has grown, so a
	// reset discipline behaves exactly like a new one with the same
	// configuration. Packets still queued are handed to pl (a nil pool
	// discards them). A world recycled between runs resets its queues
	// instead of rebuilding them.
	Reset(pl *packet.Pool)
}

// Stats counts the traffic a discipline has handled.
type Stats struct {
	Enqueued     int64 // packets accepted
	Dequeued     int64 // packets handed to the link
	DropsTail    int64 // packets dropped at enqueue (buffer overflow)
	DropsAQM     int64 // packets dropped by active queue management
	MarksECN     int64 // ECT packets CE-marked instead of dropped
	BytesDropped int64 // total bytes across all drops
}

// Drops is the total number of dropped packets.
func (s Stats) Drops() int64 { return s.DropsTail + s.DropsAQM }

// DropRecorder receives a callback for every dropped packet; the
// time-domain experiment (Figure 8) uses it to mark drop instants.
// In pooled networks (see packet.Pool) the packet may be recycled as
// soon as the callback returns: recorders must copy any fields they
// need rather than retain the pointer.
type DropRecorder func(now units.Time, p *packet.Packet)

// MarkRecorder receives a callback for every packet a discipline
// CE-marks instead of dropping; the telemetry trace plane uses it to
// emit mark events with queue depth. The packet is still owned by the
// discipline (marked packets stay in the delivery path), so recorders
// must copy any fields they need rather than retain the pointer.
type MarkRecorder func(now units.Time, p *packet.Packet)

// PoolAware is implemented by disciplines that can return dropped
// packets to a packet pool. Ownership rule: a discipline owns packets
// it has accepted (Enqueue returned true), so drops of owned packets —
// AQM dequeue drops, fair-queueing victim evictions — are recycled by
// the discipline; arrivals it rejects (Enqueue returns false) remain
// owned by the caller, which recycles them itself.
type PoolAware interface {
	// SetPool attaches the pool dropped owned packets are returned to.
	SetPool(pl *packet.Pool)
}

// fifo is a ring of packets with a running byte count: O(1) push and
// pop, no allocation once the ring has grown to the queue's working
// set, and storage that survives reset. len(buf) is zero or a power of
// two, so positions wrap with a mask.
type fifo struct {
	buf   []*packet.Packet
	head  int // index of the oldest packet
	n     int // packets held
	bytes int
}

func (f *fifo) push(p *packet.Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = p
	f.n++
	f.bytes += p.Size
}

// grow doubles the ring, unwrapping its contents to the front.
func (f *fifo) grow() {
	buf := make([]*packet.Packet, max(16, 2*len(f.buf)))
	n := copy(buf, f.buf[f.head:])
	copy(buf[n:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

func (f *fifo) pop() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	f.bytes -= p.Size
	return p
}

func (f *fifo) peek() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	return f.buf[f.head]
}

func (f *fifo) len() int { return f.n }

// reset empties the ring into pl (nil discards), keeping the storage.
func (f *fifo) reset(pl *packet.Pool) {
	for f.n > 0 {
		pl.Put(f.pop())
	}
	f.head = 0
}
