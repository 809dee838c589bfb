package queue

import (
	"learnability/internal/packet"
	"learnability/internal/units"
)

// SFQCoDelBins is the default number of hash bins, following Nichols'
// sfqcodel.cc.
const SFQCoDelBins = 1024

// SFQCoDel combines stochastic fair queueing with CoDel, the
// gateway discipline the paper pairs with TCP Cubic as its
// "Cubic-over-sfqCoDel" baseline. Flows are hashed into bins; each bin
// is an independent CoDel queue; bins are served by deficit round-robin
// with an MTU quantum, which equalizes throughput across contending
// flows while CoDel keeps each bin's standing delay near its target.
//
// Storage is sparse and flat. A gateway sees a handful of flows, so of
// the nominal bins only those a flow has hashed into exist: slot maps a
// hash bin to its entry in live, which holds the bins as values in
// first-use order, and the round-robin service list is threaded through
// those entries. Construction is two allocations whatever the bin
// count; occupancy is a pair of counters; overflow-victim search and
// Stats walk live only; and nothing allocates once live and the bins'
// rings have grown to the working set.
type SFQCoDel struct {
	slot     []int32  // hash bin -> 1 + index into live; 0 = never used
	live     []sfqBin // materialised bins, in first-use order
	capBytes int      // shared capacity across all bins
	bytes    int
	pkts     int
	stats    Stats
	quantum  int

	// head and tail index live: the deficit round-robin service list,
	// -1 when empty. Every bin holding a packet is on it; a bin that
	// overflow eviction or CoDel emptied leaves when it reaches the
	// head.
	head, tail int32

	// The bins run on this wiring too: ECT packets are CE-marked
	// instead of dropped wherever a bin's control law schedules a
	// drop, and what a bin drops is recycled.
	wiring
}

// sfqBin is one materialised hash bin: a CoDel queue plus its place in
// the round-robin.
type sfqBin struct {
	codel
	index   int32 // the hash bin this entry serves
	next    int32 // following bin on the service list, -1 at the tail
	inList  bool
	deficit int // round-robin byte credit
}

// NewSFQCoDel returns an sfqCoDel discipline with nbins hash bins and a
// shared byte capacity. It panics unless both arguments are positive.
func NewSFQCoDel(nbins, capBytes int) *SFQCoDel {
	if nbins <= 0 {
		panic("queue: NewSFQCoDel with non-positive bin count")
	}
	if capBytes <= 0 {
		panic("queue: NewSFQCoDel with non-positive capacity")
	}
	return &SFQCoDel{
		slot:     make([]int32, nbins),
		capBytes: capBytes,
		quantum:  packet.MTU,
		head:     -1,
		tail:     -1,
	}
}

// Capacity reports the shared byte capacity.
func (s *SFQCoDel) Capacity() int { return s.capBytes }

// SetCapacity changes the shared byte capacity in place — and with it
// every bin's backstop, materialised or not — so a recycled queue
// serves another buffer depth without being rebuilt. Packets already
// queued stay. It panics if capBytes is not positive.
func (s *SFQCoDel) SetCapacity(capBytes int) {
	if capBytes <= 0 {
		panic("queue: SFQCoDel with non-positive capacity")
	}
	s.capBytes = capBytes
	for i := range s.live {
		s.live[i].capBytes = capBytes
	}
}

func (s *SFQCoDel) bin(flow int) int {
	// Fibonacci hash of the flow ID; flows in our simulations are small
	// integers, so mixing matters more than collision resistance.
	h := uint64(flow+1) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(s.slot)))
}

// binFor returns the index into live of flow's bin, materialising it on
// first use. Appending may move live, so callers take pointers into it
// only afterwards.
func (s *SFQCoDel) binFor(flow int) int32 {
	i := s.bin(flow)
	if k := s.slot[i]; k != 0 {
		return k - 1
	}
	// Each bin's backstop is the shared capacity; the shared cap is
	// enforced in Enqueue.
	s.live = append(s.live, sfqBin{
		codel: codel{capBytes: s.capBytes, target: CoDelTarget, interval: CoDelInterval},
		index: int32(i),
		next:  -1,
	})
	s.slot[i] = int32(len(s.live))
	return int32(len(s.live) - 1)
}

// longest returns the occupied bin holding the most packets — the
// lowest hash bin among equals — or nil when every bin is empty.
func (s *SFQCoDel) longest() *sfqBin {
	var best *sfqBin
	for i := range s.live {
		b := &s.live[i]
		n := b.q.len()
		if n == 0 {
			continue
		}
		if best == nil || n > best.q.len() || n == best.q.len() && b.index < best.index {
			best = b
		}
	}
	return best
}

// Enqueue implements Discipline. When the shared buffer is full the
// packet at the head of the longest bin is dropped instead of the
// arriving packet (as in sfqcodel.cc), which protects low-rate flows
// from loss caused by heavy ones.
func (s *SFQCoDel) Enqueue(now units.Time, p *packet.Packet) bool {
	for s.bytes+p.Size > s.capBytes {
		b := s.longest()
		if b == nil {
			// Nothing queued anywhere yet the packet alone exceeds
			// capacity: reject it.
			s.stats.DropsTail++
			s.stats.BytesDropped += int64(p.Size)
			if s.obs != nil {
				s.obs(now, TailDrop, p)
			}
			return false
		}
		victim := b.q.pop()
		s.bytes -= victim.Size
		s.pkts--
		s.stats.DropsTail++
		s.stats.BytesDropped += int64(victim.Size)
		if s.obs != nil {
			s.obs(now, TailDrop, victim)
		}
		if s.pool != nil {
			s.pool.Put(victim)
		}
	}
	k := s.binFor(p.Flow)
	b := &s.live[k]
	if !b.enqueue(now, p, &s.wiring) {
		// A bin holds no more than the shared buffer does, and room
		// was just made there.
		panic("queue: sfqCoDel bin rejected a packet the shared buffer had room for")
	}
	s.bytes += p.Size
	s.pkts++
	s.stats.Enqueued++
	if !b.inList {
		b.deficit = s.quantum
		s.pushTail(k)
	}
	return true
}

// pushTail appends bin k to the service list.
func (s *SFQCoDel) pushTail(k int32) {
	s.live[k].inList = true
	if s.tail < 0 {
		s.head = k
	} else {
		s.live[s.tail].next = k
	}
	s.tail = k
}

// popHead takes the head bin off the service list and returns its
// index.
func (s *SFQCoDel) popHead() int32 {
	k := s.head
	b := &s.live[k]
	s.head = b.next
	if s.head < 0 {
		s.tail = -1
	}
	b.next = -1
	b.inList = false
	return k
}

// Dequeue implements Discipline using deficit round-robin over active
// bins, with CoDel applied inside each bin.
func (s *SFQCoDel) Dequeue(now units.Time) *packet.Packet {
	for s.head >= 0 {
		b := &s.live[s.head]
		if b.q.len() == 0 {
			// Bin emptied (possibly by overflow or CoDel drops).
			s.popHead()
			continue
		}
		if b.deficit < b.q.peek().Size {
			// Move to the back of the service list with a fresh quantum.
			b.deficit += s.quantum
			s.pushTail(s.popHead())
			continue
		}
		bytes, n := b.q.bytes, b.q.len()
		p := b.dequeue(now, &s.wiring)
		s.bytes -= bytes - b.q.bytes
		s.pkts -= n - b.q.len()
		if p == nil {
			// CoDel dropped the rest of the bin.
			s.popHead()
			continue
		}
		b.deficit -= p.Size
		s.stats.Dequeued++
		if b.q.len() == 0 {
			s.popHead()
		}
		return p
	}
	return nil
}

// Len implements Discipline.
func (s *SFQCoDel) Len() int { return s.pkts }

// Bytes implements Discipline.
func (s *SFQCoDel) Bytes() int { return s.bytes }

// Stats implements Discipline. AQM drops performed inside bins are
// aggregated into the shared stats.
func (s *SFQCoDel) Stats() Stats {
	st := s.stats
	for i := range s.live {
		bst := &s.live[i].stats
		st.DropsAQM += bst.DropsAQM
		st.MarksECN += bst.MarksECN
		st.BytesDropped += bst.BytesDropped
	}
	return st
}

// Reset implements Discipline. Materialised bins stay materialised,
// each reset in place with its ring kept: which bins exist is not
// observable (victim search skips empty bins, Stats adds their zeroed
// counters, and service order is the list's, rebuilt as packets
// arrive).
func (s *SFQCoDel) Reset(pl *packet.Pool) {
	for i := range s.live {
		b := &s.live[i]
		b.reset(pl)
		b.next, b.inList, b.deficit = -1, false, 0
	}
	s.bytes, s.pkts = 0, 0
	s.stats = Stats{}
	s.head, s.tail = -1, -1
	s.obs = nil
}
