package queue

import (
	"math"

	"learnability/internal/packet"
	"learnability/internal/units"
)

// Unbounded is the capacity of a FIFO that never drops and the mark
// threshold of one that never marks.
const Unbounded = math.MaxInt

// DropTail is the FIFO queue: arriving packets that would exceed its
// byte capacity are dropped, which models the paper's "buffer size
// 5 BDP" (etc.) gateways, and an Unbounded capacity its extreme "the
// link doesn't drop any packet" testing scenarios. With a mark
// threshold it does DCTCP-style ECN marking: an arriving ECN-capable
// (ECT) packet is CE-marked when accepting it would push the
// instantaneous occupancy past the threshold. Packets that overflow the
// capacity are still tail-dropped, ECT or not — marking signals
// congestion early, it does not create room.
type DropTail struct {
	capBytes  int // Unbounded: never drops
	markBytes int // Unbounded: never marks
	q         fifo
	stats     Stats
	obs       Observer
}

// NewDropTail returns a drop-tail FIFO holding at most capBytes bytes.
// It panics if capBytes is not positive (use NewInfinite for the
// paper's "no packet drops" buffers).
func NewDropTail(capBytes int) *DropTail {
	if capBytes <= 0 {
		panic("queue: NewDropTail with non-positive capacity")
	}
	return &DropTail{capBytes: capBytes, markBytes: Unbounded}
}

// NewInfinite returns a FIFO with unbounded capacity.
func NewInfinite() *DropTail { return NewDropTail(Unbounded) }

// NewMarkingDropTail returns a drop-tail FIFO holding at most capBytes
// bytes that CE-marks ECT arrivals once occupancy (including the
// arriving packet) exceeds markBytes. It panics unless
// 0 < markBytes <= capBytes.
func NewMarkingDropTail(capBytes, markBytes int) *DropTail {
	if capBytes <= 0 {
		panic("queue: NewMarkingDropTail with non-positive capacity")
	}
	if markBytes <= 0 || markBytes > capBytes {
		panic("queue: NewMarkingDropTail threshold outside (0, capacity]")
	}
	return &DropTail{capBytes: capBytes, markBytes: markBytes}
}

// Capacity reports the configured capacity in bytes.
func (d *DropTail) Capacity() int { return d.capBytes }

// SetLimits changes the capacity and the mark threshold in place, so a
// recycled queue serves another buffer depth without being rebuilt;
// markBytes Unbounded never marks. Packets already queued stay. It
// panics unless capBytes is positive and markBytes is Unbounded or in
// (0, capBytes].
func (d *DropTail) SetLimits(capBytes, markBytes int) {
	if capBytes <= 0 {
		panic("queue: DropTail with non-positive capacity")
	}
	if markBytes != Unbounded && (markBytes <= 0 || markBytes > capBytes) {
		panic("queue: DropTail threshold outside (0, capacity]")
	}
	d.capBytes, d.markBytes = capBytes, markBytes
}

// MarkThreshold reports the configured marking threshold in bytes.
func (d *DropTail) MarkThreshold() int { return d.markBytes }

// Observe implements Discipline.
func (d *DropTail) Observe(o Observer) { d.obs = o }

// Enqueue implements Discipline.
func (d *DropTail) Enqueue(now units.Time, p *packet.Packet) bool {
	bytes := d.q.bytes + p.Size // occupancy were the packet accepted
	if bytes > d.capBytes {
		d.stats.DropsTail++
		d.stats.BytesDropped += int64(p.Size)
		if d.obs != nil {
			d.obs(now, TailDrop, p)
		}
		return false
	}
	if p.ECT && bytes > d.markBytes {
		p.CE = true
		d.stats.MarksECN++
		if d.obs != nil {
			d.obs(now, CEMark, p)
		}
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
	d.obs = nil
}
