package queue

import (
	"math"

	"learnability/internal/packet"
	"learnability/internal/units"
)

// CoDel default parameters from Nichols & Jacobson, "Controlling Queue
// Delay" (ACM Queue, 2012).
const (
	// CoDelTarget is the acceptable standing-queue sojourn time.
	CoDelTarget = 5 * units.Millisecond
	// CoDelInterval is the sliding window over which sojourn must stay
	// above target before CoDel begins dropping.
	CoDelInterval = 100 * units.Millisecond
)

// CoDel implements the Controlled Delay AQM. It tracks each packet's
// sojourn time and, when the minimum sojourn stays above target for an
// interval, drops packets at dequeue time on a schedule whose rate grows
// with the square root of the drop count (the control law that gives
// CoDel its name). The queue also has a hard byte capacity as a
// backstop, like real implementations.
type CoDel struct {
	capBytes int
	q        fifo
	stats    Stats
	onDrop   DropRecorder
	onMark   MarkRecorder
	pool     *packet.Pool

	target   units.Duration
	interval units.Duration

	// CoDel state machine (RFC 8289 naming).
	firstAboveTime units.Time // when sojourn first went above target; 0 = below
	dropNext       units.Time // next scheduled drop while dropping
	count          int        // drops since entering dropping state
	dropping       bool

	// markECN switches the discipline from dropping to CE-marking
	// ECN-capable packets wherever the control law schedules a drop.
	markECN bool
}

// NewCoDel returns a CoDel queue with the standard 5 ms target and
// 100 ms interval and the given hard byte capacity backstop. It panics
// if capBytes is not positive.
func NewCoDel(capBytes int) *CoDel {
	return NewCoDelParams(capBytes, CoDelTarget, CoDelInterval)
}

// NewCoDelParams returns a CoDel queue with explicit target and
// interval, for tests and sensitivity studies.
func NewCoDelParams(capBytes int, target, interval units.Duration) *CoDel {
	if capBytes <= 0 {
		panic("queue: NewCoDel with non-positive capacity")
	}
	if target <= 0 || interval <= 0 {
		panic("queue: NewCoDel with non-positive target or interval")
	}
	return &CoDel{capBytes: capBytes, target: target, interval: interval}
}

// SetDropRecorder registers a callback invoked for each dropped packet.
func (c *CoDel) SetDropRecorder(r DropRecorder) { c.onDrop = r }

// SetMarkRecorder registers a callback invoked for each CE-marked
// packet.
func (c *CoDel) SetMarkRecorder(r MarkRecorder) { c.onMark = r }

// SetPool implements PoolAware: packets CoDel drops at dequeue time
// (packets it had accepted) are recycled.
func (c *CoDel) SetPool(pl *packet.Pool) { c.pool = pl }

// SetECNMarking switches the discipline to CE-mark ECN-capable (ECT)
// packets instead of dropping them wherever the CoDel control law
// schedules a drop; the state machine advances identically either way.
// Packets that are not ECT are still dropped.
func (c *CoDel) SetECNMarking(on bool) { c.markECN = on }

// Capacity reports the hard byte capacity backstop.
func (c *CoDel) Capacity() int { return c.capBytes }

// Enqueue implements Discipline.
func (c *CoDel) Enqueue(now units.Time, p *packet.Packet) bool {
	if c.q.bytes+p.Size > c.capBytes {
		c.stats.DropsTail++
		c.stats.BytesDropped += int64(p.Size)
		if c.onDrop != nil {
			c.onDrop(now, p)
		}
		return false
	}
	p.EnqueuedAt = now
	c.q.push(p)
	c.stats.Enqueued++
	return true
}

// controlLaw computes the next drop time after t given the current
// count.
func (c *CoDel) controlLaw(t units.Time) units.Time {
	return t.Add(units.Duration(float64(c.interval) / math.Sqrt(float64(c.count))))
}

// doDequeue pops one packet and reports whether CoDel considers the
// queue "above target" at this instant (okToDrop in RFC 8289).
func (c *CoDel) doDequeue(now units.Time) (p *packet.Packet, okToDrop bool) {
	p = c.q.pop()
	if p == nil {
		c.firstAboveTime = 0
		return nil, false
	}
	sojourn := now.Sub(p.EnqueuedAt)
	if sojourn < c.target || c.q.bytes < packet.MTU {
		// Went below target or queue nearly empty: reset.
		c.firstAboveTime = 0
		return p, false
	}
	if c.firstAboveTime == 0 {
		c.firstAboveTime = now.Add(c.interval)
		return p, false
	}
	return p, now >= c.firstAboveTime
}

func (c *CoDel) drop(now units.Time, p *packet.Packet) {
	c.stats.DropsAQM++
	c.stats.BytesDropped += int64(p.Size)
	if c.onDrop != nil {
		c.onDrop(now, p)
	}
	if c.pool != nil {
		c.pool.Put(p)
	}
}

// mark CE-marks a packet the control law scheduled for a drop. Marked
// packets stay in the delivery path: they count in Dequeued, never in
// the drop counters.
func (c *CoDel) mark(now units.Time, p *packet.Packet) {
	p.CE = true
	c.stats.MarksECN++
	if c.onMark != nil {
		c.onMark(now, p)
	}
}

// Dequeue implements Discipline, applying the CoDel state machine: it
// may drop one or more head packets before returning the packet to
// transmit, or nil if the queue empties.
func (c *CoDel) Dequeue(now units.Time) *packet.Packet {
	p, okToDrop := c.doDequeue(now)
	if c.dropping {
		if !okToDrop {
			// Sojourn fell below target (or the queue emptied): leave
			// dropping state.
			c.dropping = false
		}
		for c.dropping && now >= c.dropNext {
			if c.markECN && p.ECT {
				// ECN: mark instead of drop and deliver this packet; the
				// control law advances exactly as if it had dropped.
				c.mark(now, p)
				c.count++
				c.dropNext = c.controlLaw(c.dropNext)
				break
			}
			c.drop(now, p)
			c.count++
			p, okToDrop = c.doDequeue(now)
			if !okToDrop {
				c.dropping = false
			} else {
				c.dropNext = c.controlLaw(c.dropNext)
			}
		}
	} else if okToDrop {
		// Enter dropping state: drop (or CE-mark) this packet; a drop
		// forwards the successor through doDequeue so the sojourn /
		// firstAboveTime bookkeeping stays coherent (RFC 8289 dodeque).
		if c.markECN && p.ECT {
			c.mark(now, p)
		} else {
			c.drop(now, p)
			p, _ = c.doDequeue(now)
		}
		c.dropping = true
		// Start count near where we left off if we were dropping
		// recently (the "count decay" refinement; RFC 8289 pseudocode
		// uses a 16-interval reuse window).
		if c.count > 2 && now.Sub(c.dropNext) < 16*c.interval {
			c.count = c.count - 2
		} else {
			c.count = 1
		}
		c.dropNext = c.controlLaw(now)
	}
	if p == nil {
		c.dropping = false
		return nil
	}
	c.stats.Dequeued++
	return p
}

// Len implements Discipline.
func (c *CoDel) Len() int { return c.q.len() }

// Bytes implements Discipline.
func (c *CoDel) Bytes() int { return c.q.bytes }

// Stats implements Discipline.
func (c *CoDel) Stats() Stats { return c.stats }

// Reset implements Discipline: the RFC 8289 state machine returns to
// rest (not dropping, count zero), so a reset queue's first drop is
// scheduled exactly as a new queue's would be.
func (c *CoDel) Reset(pl *packet.Pool) {
	c.q.reset(pl)
	c.stats = Stats{}
	c.onDrop, c.onMark = nil, nil
	c.firstAboveTime, c.dropNext, c.count, c.dropping = 0, 0, 0, false
}
