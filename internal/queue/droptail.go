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
	pool      *packet.Pool
}

// NewDropTail returns a drop-tail FIFO holding at most capBytes bytes.
// It panics if capBytes is not positive (Unbounded is the paper's "no
// packet drops" buffer). SetLimits adds a mark threshold.
func NewDropTail(capBytes int) *DropTail {
	if capBytes <= 0 {
		panic("queue: NewDropTail with non-positive capacity")
	}
	return &DropTail{capBytes: capBytes, markBytes: Unbounded}
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

// Observe implements Discipline.
func (d *DropTail) Observe(o Observer) { d.obs = o }

// SetPool implements PoolAware.
func (d *DropTail) SetPool(pl *packet.Pool) { d.pool = pl }

// Enqueue implements Discipline.
func (d *DropTail) Enqueue(now units.Time, p *packet.Packet) bool {
	if !d.admit(now, p) {
		return false
	}
	d.q.push(p)
	d.stats.Enqueued++
	if d.obs != nil {
		d.obs(now, Enqueued, p)
	}
	d.pool.Put(p)
	return true
}

// Pass implements Discipline.
func (d *DropTail) Pass(now units.Time, p *packet.Packet) bool {
	if !d.admit(now, p) {
		return false
	}
	d.stats.Enqueued++
	if d.obs != nil {
		d.q.passing(p)
		d.obs(now, Enqueued, p)
		d.q.passed()
	}
	d.stats.Dequeued++
	return true
}

// admit decides an arrival: it drops it for want of room, or CE-marks
// it if it is ECN-capable and pushes the occupancy past the mark
// threshold, and stamps its enqueue time.
func (d *DropTail) admit(now units.Time, p *packet.Packet) bool {
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
	return true
}

// Dequeue implements Discipline.
func (d *DropTail) Dequeue(now units.Time) *packet.Packet {
	p := d.q.pop()
	if p == nil {
		return nil
	}
	d.stats.Dequeued++
	return d.pool.Clone(p)
}

// Len implements Discipline.
func (d *DropTail) Len() int { return d.q.len() }

// Bytes implements Discipline.
func (d *DropTail) Bytes() int { return d.q.bytes }

// Stats implements Discipline.
func (d *DropTail) Stats() Stats { return d.stats }

// Reset implements Discipline.
func (d *DropTail) Reset() {
	d.q.reset()
	d.stats = Stats{}
	d.obs = nil
}
