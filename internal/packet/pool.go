package packet

import "learnability/internal/units"

// Pool is a free list of packets owned by one simulation. Every
// simulation runs on a single goroutine (see package sim), so the pool
// is deliberately unsynchronized. Components that create packets draw
// from the pool with Data and ACK; the component that consumes a packet
// at its end of life (the receiver for data packets, the receiver's ACK
// delivery for ACKs, the link for packets rejected at enqueue) returns
// it with Put.
//
// A nil *Pool is valid and simply allocates on Get/Data/ACK and ignores
// Put, so components wired without a pool (unit tests, hand-built
// networks) keep the original allocate-per-packet behavior.
//
// Ownership contract: after Put, the packet may be recycled for an
// unrelated flow at any time. Callbacks observing packets in flight
// (queue.Observer, test sinks) must copy what they need rather than
// retain the pointer when the network is pooled.
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
	if pl == nil || pl.disabled {
		return &Packet{}
	}
	pl.Gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free = pl.free[:n-1]
		pl.Reuses++
		*p = Packet{}
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

// Put returns a packet to the free list. The caller must not use p
// afterwards.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || pl.disabled || p == nil {
		return
	}
	pl.free = append(pl.free, p)
}

// Data returns a data packet of MTU bytes for the given flow and
// sequence number, stamped with the given send time (the pooled
// equivalent of DataPacket).
func (pl *Pool) Data(flow int, seq int64, sentAt units.Time) *Packet {
	p := pl.Get()
	p.Flow = flow
	p.Seq = seq
	p.Size = MTU
	p.SentAt = sentAt
	return p
}

// ACK returns the acknowledgment for data packet p, carrying the
// cumulative ack cumSeq and the receiver arrival time now (the pooled
// equivalent of the package-level ACK).
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
