package queue

import (
	"learnability/internal/packet"
	"learnability/internal/units"
)

// MarkingDropTail is a drop-tail FIFO with DCTCP-style ECN marking: an
// arriving ECN-capable (ECT) packet is CE-marked when accepting it
// would push the instantaneous queue occupancy past a byte threshold.
// Packets that overflow the hard capacity are still tail-dropped, ECT
// or not, exactly like DropTail — marking signals congestion early, it
// does not create room.
type MarkingDropTail struct {
	capBytes  int
	markBytes int
	q         fifo
	stats     Stats
	onDrop    DropRecorder
	onMark    MarkRecorder
}

// NewMarkingDropTail returns a marking drop-tail FIFO holding at most
// capBytes bytes that CE-marks ECT arrivals once occupancy (including
// the arriving packet) exceeds markBytes. It panics unless
// 0 < markBytes <= capBytes.
func NewMarkingDropTail(capBytes, markBytes int) *MarkingDropTail {
	if capBytes <= 0 {
		panic("queue: NewMarkingDropTail with non-positive capacity")
	}
	if markBytes <= 0 || markBytes > capBytes {
		panic("queue: NewMarkingDropTail threshold outside (0, capacity]")
	}
	return &MarkingDropTail{capBytes: capBytes, markBytes: markBytes}
}

// SetDropRecorder registers a callback invoked for each dropped packet.
func (d *MarkingDropTail) SetDropRecorder(r DropRecorder) { d.onDrop = r }

// SetMarkRecorder registers a callback invoked for each CE-marked
// packet.
func (d *MarkingDropTail) SetMarkRecorder(r MarkRecorder) { d.onMark = r }

// Capacity reports the configured capacity in bytes.
func (d *MarkingDropTail) Capacity() int { return d.capBytes }

// MarkThreshold reports the configured marking threshold in bytes.
func (d *MarkingDropTail) MarkThreshold() int { return d.markBytes }

// Enqueue implements Discipline.
func (d *MarkingDropTail) Enqueue(now units.Time, p *packet.Packet) bool {
	if d.q.bytes+p.Size > d.capBytes {
		d.stats.DropsTail++
		d.stats.BytesDropped += int64(p.Size)
		if d.onDrop != nil {
			d.onDrop(now, p)
		}
		return false
	}
	if p.ECT && d.q.bytes+p.Size > d.markBytes {
		p.CE = true
		d.stats.MarksECN++
		if d.onMark != nil {
			d.onMark(now, p)
		}
	}
	p.EnqueuedAt = now
	d.q.push(p)
	d.stats.Enqueued++
	return true
}

// Dequeue implements Discipline.
func (d *MarkingDropTail) Dequeue(now units.Time) *packet.Packet {
	p := d.q.pop()
	if p != nil {
		d.stats.Dequeued++
	}
	return p
}

// Len implements Discipline.
func (d *MarkingDropTail) Len() int { return d.q.len() }

// Bytes implements Discipline.
func (d *MarkingDropTail) Bytes() int { return d.q.bytes }

// Stats implements Discipline.
func (d *MarkingDropTail) Stats() Stats { return d.stats }

// Reset implements Discipline.
func (d *MarkingDropTail) Reset(pl *packet.Pool) {
	d.q.reset(pl)
	d.stats = Stats{}
	d.onDrop, d.onMark = nil, nil
}
