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
	codel
	wiring
}

// wiring is what a CoDel-based discipline is attached to and told from
// outside. A CoDel has its own; the bins of an SFQCoDel run on their
// parent's.
type wiring struct {
	obs  Observer
	pool *packet.Pool
	// markECN switches the discipline from dropping to CE-marking
	// ECN-capable packets wherever the control law schedules a drop.
	markECN bool
}

// Observe implements Discipline.
func (w *wiring) Observe(o Observer) { w.obs = o }

// SetPool implements PoolAware.
func (w *wiring) SetPool(pl *packet.Pool) { w.pool = pl }

// accepted states an accepted packet to the observer and recycles the
// pointer, whose value the discipline now holds.
func (w *wiring) accepted(now units.Time, p *packet.Packet) {
	if w.obs != nil {
		w.obs(now, Enqueued, p)
	}
	w.pool.Put(p)
}

// passing states the acceptance of a packet that crosses an empty
// queue without entering it, with f counting it as held for the call.
func (w *wiring) passing(now units.Time, p *packet.Packet, f *fifo) {
	if w.obs != nil {
		f.passing(p)
		w.obs(now, Enqueued, p)
		f.passed()
	}
}

// SetECNMarking switches the discipline to CE-mark ECN-capable (ECT)
// packets instead of dropping them wherever the CoDel control law
// schedules a drop; the state machine advances identically either way.
// Packets that are not ECT are still dropped, and so are sfqCoDel's
// overflow victims (they make room for an arriving packet, which
// marking cannot).
func (w *wiring) SetECNMarking(on bool) { w.markECN = on }

// codel is the queue and the control law, run on a wiring its caller
// passes in.
type codel struct {
	capBytes int
	q        fifo
	stats    Stats

	target   units.Duration
	interval units.Duration

	// CoDel state machine (RFC 8289 naming).
	firstAboveTime units.Time // when sojourn first went above target; 0 = below
	dropNext       units.Time // next scheduled drop while dropping
	count          int        // drops since entering dropping state
	dropping       bool
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
	return &CoDel{codel: codel{capBytes: capBytes, target: target, interval: interval}}
}

// Capacity reports the hard byte capacity backstop.
func (c *codel) Capacity() int { return c.capBytes }

// SetCapacity changes the hard byte capacity backstop in place, so a
// recycled queue serves another buffer depth without being rebuilt.
// Packets already queued stay. It panics if capBytes is not positive.
func (c *CoDel) SetCapacity(capBytes int) {
	if capBytes <= 0 {
		panic("queue: CoDel with non-positive capacity")
	}
	c.capBytes = capBytes
}

// Enqueue implements Discipline.
func (c *CoDel) Enqueue(now units.Time, p *packet.Packet) bool {
	if !c.enqueue(now, p, &c.wiring) {
		return false
	}
	c.accepted(now, p)
	return true
}

// Pass implements Discipline.
func (c *CoDel) Pass(now units.Time, p *packet.Packet) bool {
	if !c.admit(now, p, &c.wiring) {
		c.rest() // Dequeue of the empty queue
		return false
	}
	c.pass()
	c.passing(now, p, &c.q)
	return true
}

// enqueue queues a copy of p, or reports its rejection to w; the
// caller states an acceptance.
func (c *codel) enqueue(now units.Time, p *packet.Packet, w *wiring) bool {
	if !c.admit(now, p, w) {
		return false
	}
	c.q.push(p)
	c.stats.Enqueued++
	return true
}

// admit decides an arrival: it is rejected, and the rejection reported
// to w, if the queue has no room for it; else its enqueue time is
// stamped.
func (c *codel) admit(now units.Time, p *packet.Packet, w *wiring) bool {
	if c.q.bytes+p.Size > c.capBytes {
		c.stats.DropsTail++
		c.stats.BytesDropped += int64(p.Size)
		if w.obs != nil {
			w.obs(now, TailDrop, p)
		}
		return false
	}
	p.EnqueuedAt = now
	return true
}

// pass is the counting and the control law of enqueue followed by
// dequeue for an admitted packet that finds the queue empty and leaves
// it at once: its sojourn is zero, below any target, so dequeue serves
// it and leaves the control law at rest; the caller states the
// acceptance.
func (c *codel) pass() {
	c.stats.Enqueued++
	c.stats.Dequeued++
	c.rest()
}

// rest is what dequeue leaves behind when the queue is empty after it,
// or a packet of sojourn below target leaves it: no interval above
// target running, and not dropping.
func (c *codel) rest() { c.firstAboveTime, c.dropping = 0, false }

// controlLaw computes the next drop time after t given the current
// count.
func (c *codel) controlLaw(t units.Time) units.Time {
	return t.Add(units.Duration(float64(c.interval) / math.Sqrt(float64(c.count))))
}

// doDequeue pops one packet and reports whether CoDel considers the
// queue "above target" at this instant (okToDrop in RFC 8289).
func (c *codel) doDequeue(now units.Time) (p *packet.Packet, okToDrop bool) {
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

func (c *codel) drop(now units.Time, p *packet.Packet, w *wiring) {
	c.stats.DropsAQM++
	c.stats.BytesDropped += int64(p.Size)
	if w.obs != nil {
		w.obs(now, AQMDrop, p)
	}
}

// mark CE-marks a packet the control law scheduled for a drop. Marked
// packets stay in the delivery path: they count in Dequeued, never in
// the drop counters.
func (c *codel) mark(now units.Time, p *packet.Packet, w *wiring) {
	p.CE = true
	c.stats.MarksECN++
	if w.obs != nil {
		w.obs(now, CEMark, p)
	}
}

// Dequeue implements Discipline, applying the CoDel state machine: it
// may drop one or more head packets before returning the packet to
// transmit, or nil if the queue empties.
func (c *CoDel) Dequeue(now units.Time) *packet.Packet {
	return c.dequeue(now, &c.wiring)
}

// dequeue is Dequeue, with drops and marks reported to, marking decided
// by and the served packet drawn from w. The packets it drops and marks
// are ring slots, valid until the next push.
func (c *codel) dequeue(now units.Time, w *wiring) *packet.Packet {
	p, okToDrop := c.doDequeue(now)
	if c.dropping {
		if !okToDrop {
			// Sojourn fell below target (or the queue emptied): leave
			// dropping state.
			c.dropping = false
		}
		for c.dropping && now >= c.dropNext {
			if w.markECN && p.ECT {
				// ECN: mark instead of drop and deliver this packet; the
				// control law advances exactly as if it had dropped.
				c.mark(now, p, w)
				c.count++
				c.dropNext = c.controlLaw(c.dropNext)
				break
			}
			c.drop(now, p, w)
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
		if w.markECN && p.ECT {
			c.mark(now, p, w)
		} else {
			c.drop(now, p, w)
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
	return w.pool.Clone(p)
}

// Len implements Discipline.
func (c *codel) Len() int { return c.q.len() }

// Bytes implements Discipline.
func (c *codel) Bytes() int { return c.q.bytes }

// Stats implements Discipline.
func (c *codel) Stats() Stats { return c.stats }

// Reset implements Discipline: the RFC 8289 state machine returns to
// rest (not dropping, count zero), so a reset queue's first drop is
// scheduled exactly as a new queue's would be.
func (c *CoDel) Reset() {
	c.reset()
	c.obs = nil
}

// reset is Reset for everything but the wiring.
func (c *codel) reset() {
	c.q.reset()
	c.stats = Stats{}
	c.firstAboveTime, c.dropNext, c.count, c.dropping = 0, 0, 0, false
}
