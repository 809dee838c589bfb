package queue

// Differential test pinning CoDel against an independent transcription
// of the RFC 8289 dequeue pseudocode. The two implementations share no
// code: the reference below keeps its own queue of (id, size, tstamp)
// records and follows the RFC's deque()/dodeque() structure line by
// line, including the successor dodeque() after the drop that enters
// dropping state and the 16-interval count-reuse window. Two deliberate
// repo conventions are mirrored rather than the RFC's letter: the
// sub-MTU guard is `bytes() < MTU` (the RFC has `<= maxpacket`), and
// the reused count decays by two (the RFC leaves the decay constant
// open; the repo pins count-2, see TestCoDelCountDecayOnReentry).

import (
	"math"
	"testing"

	"learnability/internal/packet"
	"learnability/internal/rng"
	"learnability/internal/units"
)

type refPacket struct {
	id   int64
	size int
	ts   units.Time // enqueue timestamp
}

// rfcCoDel is the reference: RFC 8289 pseudocode over a plain slice
// queue, with the same hard byte-capacity backstop as the real queue.
type rfcCoDel struct {
	capBytes int
	q        []refPacket
	bytes    int

	target   units.Duration
	interval units.Duration

	firstAboveTime units.Time
	dropNext       units.Time
	count          int
	dropping       bool

	dropped []int64 // AQM drops, in order
}

func newRFCCoDel(capBytes int) *rfcCoDel {
	return &rfcCoDel{capBytes: capBytes, target: CoDelTarget, interval: CoDelInterval}
}

func (r *rfcCoDel) enqueue(now units.Time, id int64, size int) bool {
	if r.bytes+size > r.capBytes {
		return false
	}
	r.q = append(r.q, refPacket{id: id, size: size, ts: now})
	r.bytes += size
	return true
}

func (r *rfcCoDel) pop() (refPacket, bool) {
	if len(r.q) == 0 {
		return refPacket{}, false
	}
	p := r.q[0]
	r.q = r.q[1:]
	r.bytes -= p.size
	return p, true
}

func (r *rfcCoDel) controlLaw(t units.Time) units.Time {
	return t.Add(units.Duration(float64(r.interval) / math.Sqrt(float64(r.count))))
}

// dodeque transcribes RFC 8289 dodeque().
func (r *rfcCoDel) dodeque(now units.Time) (p refPacket, have, okToDrop bool) {
	p, have = r.pop()
	if !have {
		r.firstAboveTime = 0
		return p, false, false
	}
	sojourn := now.Sub(p.ts)
	if sojourn < r.target || r.bytes < packet.MTU {
		r.firstAboveTime = 0
		return p, true, false
	}
	if r.firstAboveTime == 0 {
		r.firstAboveTime = now.Add(r.interval)
		return p, true, false
	}
	return p, true, now >= r.firstAboveTime
}

// deque transcribes RFC 8289 deque(); it returns the delivered packet
// id, recording AQM drops in r.dropped.
func (r *rfcCoDel) deque(now units.Time) (id int64, ok bool) {
	p, have, okToDrop := r.dodeque(now)
	if r.dropping {
		if !okToDrop {
			r.dropping = false
		}
		for r.dropping && now >= r.dropNext {
			r.dropped = append(r.dropped, p.id)
			r.count++
			p, have, okToDrop = r.dodeque(now)
			if !okToDrop {
				r.dropping = false
			} else {
				r.dropNext = r.controlLaw(r.dropNext)
			}
		}
	} else if okToDrop {
		r.dropped = append(r.dropped, p.id)
		p, have, _ = r.dodeque(now)
		r.dropping = true
		if r.count > 2 && now.Sub(r.dropNext) < 16*r.interval {
			r.count = r.count - 2
		} else {
			r.count = 1
		}
		r.dropNext = r.controlLaw(now)
	}
	if !have {
		r.dropping = false
		return 0, false
	}
	return p.id, true
}

// TestCoDelMatchesRFCReference drives CoDel and the reference through
// identical random traces and requires byte-for-byte agreement on every
// acceptance, delivery, and drop. The trace alternates overload, match,
// and drain epochs so both sides repeatedly enter, leave, and re-enter
// the dropping state (exercising the successor-dodeque path and the
// count-reuse window).
func TestCoDelMatchesRFCReference(t *testing.T) {
	// Deep queues exercise the steady dropping schedule; shallow queues
	// with sub-MTU packets keep the backlog hovering around one MTU, so
	// drops frequently land with a near-empty successor — the regime
	// where skipping the successor's dodeque bookkeeping diverges.
	cases := []struct {
		capBytes, minSize, maxSize int
	}{
		{300 * packet.MTU, 100, packet.MTU},
		{4 * packet.MTU, 120, 400},
		{2 * packet.MTU, 100, 300},
	}
	for ci, tc := range cases {
		for _, seed := range []uint64{1, 2, 3, 4, 5} {
			q := NewCoDel(tc.capBytes)
			ref := newRFCCoDel(tc.capBytes)
			var implDropped []int64
			q.Observe(func(_ units.Time, ev Event, p *packet.Packet) {
				if ev != Enqueued {
					implDropped = append(implDropped, p.Seq)
				}
			})

			r := rng.New(seed).Split("codel-rfc").SplitN("case", ci)
			now := units.Time(0)
			var nextID int64
			var tailRejects int64
			rejected := map[int64]bool{}
			arrivalProb := 0.8
			for step := 0; step < 60000; step++ {
				if step%1000 == 0 {
					// New epoch: overload, match, or drain.
					arrivalProb = []float64{0.85, 0.5, 0.15}[r.Intn(3)]
				}
				now = now.Add(units.Duration(r.Intn(int(2 * units.Millisecond))))
				if r.Float64() < arrivalProb {
					size := tc.minSize + r.Intn(tc.maxSize-tc.minSize+1)
					p := mkpkt(1, nextID)
					p.Size = size
					accImpl := q.Enqueue(now, p)
					accRef := ref.enqueue(now, nextID, size)
					if accImpl != accRef {
						t.Fatalf("case %d seed %d step %d: enqueue accept impl=%v ref=%v", ci, seed, step, accImpl, accRef)
					}
					if !accImpl {
						tailRejects++
						rejected[nextID] = true
					}
					nextID++
				} else {
					p := q.Dequeue(now)
					id, ok := ref.deque(now)
					if (p != nil) != ok {
						t.Fatalf("case %d seed %d step %d: dequeue presence impl=%v ref=%v", ci, seed, step, p != nil, ok)
					}
					if p != nil && p.Seq != id {
						t.Fatalf("case %d seed %d step %d: dequeued impl=%d ref=%d", ci, seed, step, p.Seq, id)
					}
				}
			}
			// The recorder sees tail rejects as well as AQM drops; strip
			// the rejects (the reference records only AQM drops).
			var aqmImpl []int64
			for _, id := range implDropped {
				if !rejected[id] {
					aqmImpl = append(aqmImpl, id)
				}
			}
			st := q.Stats()
			if st.DropsTail != tailRejects {
				t.Fatalf("case %d seed %d: DropsTail = %d, harness counted %d rejects", ci, seed, st.DropsTail, tailRejects)
			}
			if st.DropsAQM != int64(len(ref.dropped)) {
				t.Fatalf("case %d seed %d: DropsAQM = %d, reference dropped %d", ci, seed, st.DropsAQM, len(ref.dropped))
			}
			if len(aqmImpl) != len(ref.dropped) {
				t.Fatalf("case %d seed %d: drop sequences diverge: impl %d AQM drops, ref %d", ci, seed, len(aqmImpl), len(ref.dropped))
			}
			for i := range aqmImpl {
				if aqmImpl[i] != ref.dropped[i] {
					t.Fatalf("case %d seed %d: drop %d: impl id %d, ref id %d", ci, seed, i, aqmImpl[i], ref.dropped[i])
				}
			}
			if ref.count != q.count || ref.dropping != q.dropping {
				t.Fatalf("case %d seed %d: final state diverged: impl (count=%d dropping=%v) ref (count=%d dropping=%v)",
					ci, seed, q.count, q.dropping, ref.count, ref.dropping)
			}
		}
	}
}
