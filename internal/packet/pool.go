package packet

import "learnability/internal/units"

// Pool is a free list of packets owned by one simulation. Every
// simulation runs on a single goroutine (see package sim), so the pool
// is deliberately unsynchronized.
//
// Ownership contract: a pool packet lives between two hops only — on a
// delay lane, or inside the handler a lane or a link hands it to. The
// sender draws data packets with Data and the receiver ACKs with ACK;
// a queue that accepts a packet copies it into its own storage and
// Puts the pointer back before Enqueue returns, and hands the link a
// pool packet filled from that copy (Clone) when it serves it; the
// receiver Puts what it consumes, and the link Puts what its queue
// rejects. After Put the packet may be recycled for an unrelated flow
// at any time, so callbacks observing packets (queue.Observer, packet
// tracers, test sinks) must copy what they need rather than retain the
// pointer.
//
// A nil *Pool is valid and simply allocates on Get/Clone/Data/ACK and
// ignores Put, so components wired without a pool (unit tests,
// hand-built networks) keep the original allocate-per-packet behavior.
type Pool struct {
	free     []*Packet
	disabled bool

	// slab is the current block of never-used packets; slabNext indexes
	// the first unhanded entry. Growing a simulation's packet
	// population costs one allocation per slabSize packets instead of
	// one per packet, so the run-start ramp to peak occupancy (windows
	// opening, queues filling) stays off the allocator's hot path.
	slab     []Packet
	slabNext int

	// Gets/Reuses count pool traffic (observability and tests).
	Gets   int64 // packets handed out
	Reuses int64 // of those, recycled after a Put
}

// slabSize is how many packets a dry pool allocates at once.
const slabSize = 256

// Reset prepares the pool for another simulation on the same world:
// the free list and current slab are kept — recycling them across runs
// is the point of world reuse — and only the traffic counters restart,
// so per-run observability stays meaningful.
func (pl *Pool) Reset() {
	if pl == nil {
		return
	}
	pl.Gets, pl.Reuses = 0, 0
}

// Disable turns the pool into a plain allocator: Get allocates and Put
// discards. Used to cross-check that pooling does not change simulation
// results.
func (pl *Pool) Disable() {
	if pl == nil {
		return
	}
	pl.disabled = true
	pl.free = nil
	pl.slab = nil
	pl.slabNext = 0
}

// Get returns a zeroed packet, recycling a previously Put packet when
// one is available and carving from the current slab otherwise.
func (pl *Pool) Get() *Packet {
	p := pl.take()
	*p = Packet{}
	return p
}

// Clone returns a pool packet holding a copy of *v: a queue serving a
// packet it held by value hands the link one of these. The packet is
// not zeroed first, since the copy overwrites every field.
func (pl *Pool) Clone(v *Packet) *Packet {
	p := pl.take()
	*p = *v
	return p
}

// take returns a free packet as its last user left it (a slab packet
// is zero), counting it in Gets and, when recycled, in Reuses.
func (pl *Pool) take() *Packet {
	if pl == nil || pl.disabled {
		return &Packet{}
	}
	pl.Gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free = pl.free[:n-1]
		pl.Reuses++
		return p
	}
	if pl.slabNext == len(pl.slab) {
		pl.slab = make([]Packet, slabSize)
		pl.slabNext = 0
	}
	p := &pl.slab[pl.slabNext]
	pl.slabNext++
	return p
}

// Free reports how many packets are on the free list. With the
// packets on a network's delay lanes they are every packet the pool has
// made, which is what the scenario package's end-of-run books check
// under go test.
func (pl *Pool) Free() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}

// Put returns a packet to the free list. The caller must not use p
// afterwards.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || pl.disabled || p == nil {
		return
	}
	pl.free = append(pl.free, p)
}

// Data returns a data packet of MTU bytes for the given flow and
// sequence number, stamped with the given send time.
func (pl *Pool) Data(flow int, seq int64, sentAt units.Time) *Packet {
	p := pl.Get()
	p.Flow = flow
	p.Seq = seq
	p.Size = MTU
	p.SentAt = sentAt
	return p
}

// ACK returns the acknowledgment for data packet p, carrying the
// cumulative ack cumSeq and the receiver arrival time now. It echoes
// p's CE mark; an ACK is never ECN-capable itself.
func (pl *Pool) ACK(p *Packet, cumSeq int64, now units.Time) *Packet {
	a := pl.Get()
	a.Flow = p.Flow
	a.Size = ACKSize
	a.IsACK = true
	a.AckSeq = cumSeq
	a.AckedSeq = p.Seq
	a.EchoSentAt = p.SentAt
	a.ReceivedAt = now
	a.CE = p.CE
	return a
}
