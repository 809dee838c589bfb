package queue

import (
	"learnability/internal/packet"
	"learnability/internal/units"
)

// DropTail is a FIFO queue with a finite byte capacity: arriving packets
// that would exceed the capacity are dropped. This models the paper's
// "buffer size 5 BDP" (etc.) gateways.
type DropTail struct {
	capBytes int
	q        fifo
	stats    Stats
	onDrop   DropRecorder
}

// NewDropTail returns a drop-tail FIFO holding at most capBytes bytes.
// It panics if capBytes is not positive (use NewInfinite for the
// paper's "no packet drops" buffers).
func NewDropTail(capBytes int) *DropTail {
	if capBytes <= 0 {
		panic("queue: NewDropTail with non-positive capacity")
	}
	return &DropTail{capBytes: capBytes}
}

// SetDropRecorder registers a callback invoked for each dropped packet.
func (d *DropTail) SetDropRecorder(r DropRecorder) { d.onDrop = r }

// Capacity reports the configured capacity in bytes.
func (d *DropTail) Capacity() int { return d.capBytes }

// Enqueue implements Discipline.
func (d *DropTail) Enqueue(now units.Time, p *packet.Packet) bool {
	if d.q.bytes+p.Size > d.capBytes {
		d.stats.DropsTail++
		d.stats.BytesDropped += int64(p.Size)
		if d.onDrop != nil {
			d.onDrop(now, p)
		}
		return false
	}
	p.EnqueuedAt = now
	d.q.push(p)
	d.stats.Enqueued++
	return true
}

// Dequeue implements Discipline.
func (d *DropTail) Dequeue(now units.Time) *packet.Packet {
	p := d.q.pop()
	if p != nil {
		d.stats.Dequeued++
	}
	return p
}

// Len implements Discipline.
func (d *DropTail) Len() int { return d.q.len() }

// Bytes implements Discipline.
func (d *DropTail) Bytes() int { return d.q.bytes }

// Stats implements Discipline.
func (d *DropTail) Stats() Stats { return d.stats }

// Reset implements Discipline.
func (d *DropTail) Reset(pl *packet.Pool) {
	d.q.reset(pl)
	d.stats = Stats{}
	d.onDrop = nil
}

// Infinite is a FIFO queue that never drops, modeling the paper's
// extreme "the link doesn't drop any packet" testing scenarios.
type Infinite struct {
	q     fifo
	stats Stats
}

// NewInfinite returns a FIFO with unbounded capacity.
func NewInfinite() *Infinite { return &Infinite{} }

// Enqueue implements Discipline; it always accepts.
func (d *Infinite) Enqueue(now units.Time, p *packet.Packet) bool {
	p.EnqueuedAt = now
	d.q.push(p)
	d.stats.Enqueued++
	return true
}

// Dequeue implements Discipline.
func (d *Infinite) Dequeue(now units.Time) *packet.Packet {
	p := d.q.pop()
	if p != nil {
		d.stats.Dequeued++
	}
	return p
}

// Len implements Discipline.
func (d *Infinite) Len() int { return d.q.len() }

// Bytes implements Discipline.
func (d *Infinite) Bytes() int { return d.q.bytes }

// Stats implements Discipline.
func (d *Infinite) Stats() Stats { return d.stats }

// Reset implements Discipline.
func (d *Infinite) Reset(pl *packet.Pool) {
	d.q.reset(pl)
	d.stats = Stats{}
}
