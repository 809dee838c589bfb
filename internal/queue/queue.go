// Package queue implements the gateway queueing disciplines used in the
// paper's experiments. There are three: DropTail, the one FIFO — finite
// or unbounded, with or without a DCTCP-style ECN marking threshold
// (all training scenarios and most testing scenarios); CoDel; and
// SFQCoDel (stochastic fair queueing over CoDel bins), which the paper
// runs at bottleneck gateways for its Cubic-over-sfqCoDel baseline.
//
// A run is watched through one seam, Discipline.Observe: the discipline
// states each acceptance, drop and CE mark, with its kind, at the site
// that bumps the matching Stats counter.
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
// A discipline holds the packets it has accepted by value: Enqueue
// copies an accepted packet into the discipline's ring and Puts the
// pointer back to the attached pool (see PoolAware) before it returns,
// and Dequeue hands the link a pool packet filled from the ring's head
// (packet.Pool.Clone). A deep queue is then two in-order passes over
// one block of memory, written at its tail and read at its head,
// instead of pointers to packets scattered over the pool, and a pool
// packet lives only on a delay lane or inside a handler.
//
// Len and Bytes are O(1) by contract: every discipline keeps running
// counters beside its storage. The adaptive router reads a candidate's
// Len for every packet it forwards, so an occupancy query that walks
// the queue would put the queue's size into the per-packet cost of
// every upstream link.
type Discipline interface {
	// Enqueue offers an arriving packet; false means dropped on
	// arrival, and the caller keeps (and recycles) it. An accepted
	// packet is copied, and the pointer recycled, before Enqueue
	// returns.
	Enqueue(now units.Time, p *packet.Packet) bool
	// Dequeue hands the next packet to the link as a pool packet the
	// link then owns, or nil when none is available.
	Dequeue(now units.Time) *packet.Packet
	// Pass offers a packet that finds the queue empty and its link
	// idle. It is exactly Enqueue followed by Dequeue — the same Stats,
	// the same observer events (the acceptance reports a depth of one
	// packet of p.Size bytes), the same control-law state afterwards —
	// except that the packet Dequeue would hand back is p itself, so
	// nothing is copied in or out and the pool is not touched. It
	// reports whether p was accepted, and so is the packet to serialize
	// now; the caller keeps p either way. Calling it on a non-empty
	// queue is a logic error.
	Pass(now units.Time, p *packet.Packet) bool
	// Len is the number of packets currently queued, in O(1).
	Len() int
	// Bytes is the number of bytes currently queued, in O(1).
	Bytes() int
	// Stats reports the discipline's accept/drop counters.
	Stats() Stats
	// Observe installs the discipline's one observer, replacing any
	// other; nil removes it.
	Observe(o Observer)
	// Reset returns the discipline to the state its constructor left
	// it in — empty, zero Stats, control law at rest, no observer —
	// keeping its configuration (capacity, thresholds, marking mode,
	// attached pool) and the storage it has grown, so a reset
	// discipline behaves exactly like a new one with the same
	// configuration. The packets still queued are values in that
	// storage and are simply forgotten. A world recycled between runs
	// resets its queues instead of rebuilding them.
	Reset()
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

// Event is what a discipline did to a packet; each kind has its Stats
// counter.
type Event uint8

// The events a discipline states to its Observer.
const (
	// TailDrop: dropped at enqueue time for want of room — a rejected
	// arrival or a fair-queueing victim eviction (Stats.DropsTail).
	TailDrop Event = iota
	// AQMDrop: dropped at dequeue time by the control law
	// (Stats.DropsAQM).
	AQMDrop
	// CEMark: CE-marked instead of dropped; the packet stays in the
	// delivery path (Stats.MarksECN).
	CEMark
	// Enqueued: accepted (Stats.Enqueued), stated once the queue holds
	// the packet — after any CE mark of it and any victim evictions it
	// caused — so Len and Bytes include it.
	Enqueued
)

// Observer receives a callback for every packet a discipline accepts,
// drops or CE-marks, with the kind stated by the discipline. Observers
// only observe — a traced run is bit-identical to an untraced one. The
// packet is the arriving one or the discipline's own copy, valid only
// for the call: observers must copy any fields they need rather than
// retain the pointer.
type Observer func(now units.Time, ev Event, p *packet.Packet)

// PoolAware is implemented by every discipline: it attaches the pool
// that accepted packets are recycled to and that served packets are
// drawn from. Without one (a bare queue in a unit test) a served packet
// is allocated. Ownership rule: a discipline owns what it has accepted
// (Enqueue returned true) — its copy of the packet, and the pointer it
// recycles at once; arrivals it rejects (Enqueue returns false) remain
// owned by the caller, which recycles them itself.
type PoolAware interface {
	// SetPool attaches the discipline's pool.
	SetPool(pl *packet.Pool)
}

// fifo is a ring of packet values with a running byte count: O(1) push
// and pop, no allocation once the ring has grown to the queue's working
// set, and storage that survives reset. len(buf) is zero or a power of
// two, so positions wrap with a mask. Packet holds no pointers, so the
// ring is memory the garbage collector never scans.
type fifo struct {
	buf   []packet.Packet
	head  int // index of the oldest packet
	n     int // packets held
	bytes int
}

// push copies *p to the tail of the ring.
func (f *fifo) push(p *packet.Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = *p
	f.n++
	f.bytes += p.Size
}

// grow doubles the ring, unwrapping its contents to the front.
func (f *fifo) grow() {
	buf := make([]packet.Packet, max(16, 2*len(f.buf)))
	n := copy(buf, f.buf[f.head:])
	copy(buf[n:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// pop takes the oldest packet off the ring and returns its slot, or
// nil when the ring is empty. The slot keeps the value until the next
// push, so a discipline may read, mark or drop it until then. A ring
// that empties starts again at its front: a shallow queue then cycles
// through the few slots that are in cache instead of walking its whole
// ring, which holds values a dozen times the size of pointers.
func (f *fifo) pop() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	p := &f.buf[f.head]
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	if f.n == 0 {
		f.head = 0
	}
	f.bytes -= p.Size
	return p
}

func (f *fifo) peek() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	return &f.buf[f.head]
}

func (f *fifo) len() int { return f.n }

// passing counts p, which crosses the empty ring without entering it,
// as held until passed: an observer told of its acceptance in between
// reads the depth Enqueue would have shown it.
func (f *fifo) passing(p *packet.Packet) { f.n, f.bytes = 1, p.Size }

// passed ends passing: the ring is empty again, as it was.
func (f *fifo) passed() { f.n, f.bytes = 0, 0 }

// reset empties the ring, keeping the storage.
func (f *fifo) reset() { f.head, f.n, f.bytes = 0, 0, 0 }
