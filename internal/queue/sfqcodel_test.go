package queue

import (
	"fmt"
	"testing"
	"testing/quick"

	"learnability/internal/packet"
	"learnability/internal/rng"
	"learnability/internal/units"
)

func TestSFQCoDelBasicFIFOWithinFlow(t *testing.T) {
	q := NewSFQCoDel(16, 100*packet.MTU)
	for i := int64(0); i < 10; i++ {
		if !q.Enqueue(0, mkpkt(1, i)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	var prev int64 = -1
	for {
		p := q.Dequeue(0)
		if p == nil {
			break
		}
		if p.Seq <= prev {
			t.Fatalf("within-flow reordering: %d after %d", p.Seq, prev)
		}
		prev = p.Seq
	}
	if prev != 9 {
		t.Fatalf("drained up to %d, want 9", prev)
	}
}

func TestSFQCoDelInterleavesFlows(t *testing.T) {
	q := NewSFQCoDel(64, 1000*packet.MTU)
	// Flow 1 floods first; flow 2 adds two packets afterwards. DRR must
	// serve flow 2 long before flow 1 drains.
	for i := int64(0); i < 50; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	q.Enqueue(0, mkpkt(2, 0))
	q.Enqueue(0, mkpkt(2, 1))
	pos := map[int][]int{}
	for i := 0; ; i++ {
		p := q.Dequeue(0)
		if p == nil {
			break
		}
		pos[p.Flow] = append(pos[p.Flow], i)
	}
	if len(pos[2]) != 2 {
		t.Fatalf("flow 2 delivered %d packets", len(pos[2]))
	}
	if pos[2][1] > 5 {
		t.Fatalf("flow 2's packets served at positions %v; DRR should interleave early", pos[2])
	}
}

func TestSFQCoDelFairDrainRates(t *testing.T) {
	// Two flows with very different backlogs should drain at equal
	// packet rates while both are backlogged.
	q := NewSFQCoDel(64, 10000*packet.MTU)
	for i := int64(0); i < 200; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	for i := int64(0); i < 200; i++ {
		q.Enqueue(0, mkpkt(7, i))
	}
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		p := q.Dequeue(0)
		if p == nil {
			t.Fatal("unexpected empty")
		}
		counts[p.Flow]++
	}
	if counts[1] != 50 || counts[7] != 50 {
		t.Fatalf("unfair service while both backlogged: %v", counts)
	}
}

func TestSFQCoDelOverflowDropsFromLongestBin(t *testing.T) {
	q := NewSFQCoDel(64, 10*packet.MTU)
	for i := int64(0); i < 9; i++ {
		q.Enqueue(0, mkpkt(1, i)) // flow 1 hogs the buffer
	}
	var dropped []packet.Packet
	q.Observe(func(now units.Time, ev Event, p *packet.Packet) {
		if ev == TailDrop {
			dropped = append(dropped, *p)
		}
	})
	// Arrival from flow 2 must be accepted; a flow-1 packet is evicted.
	if !q.Enqueue(0, mkpkt(2, 0)) {
		t.Fatal("flow 2 arrival rejected; should evict from longest bin")
	}
	if !q.Enqueue(0, mkpkt(2, 1)) {
		t.Fatal("second flow 2 arrival rejected")
	}
	for _, d := range dropped {
		if d.Flow != 1 {
			t.Fatalf("evicted packet from flow %d, want flow 1 (longest bin)", d.Flow)
		}
	}
	if len(dropped) == 0 {
		t.Fatal("no eviction recorded")
	}
	if q.Stats().DropsTail != int64(len(dropped)) {
		t.Fatalf("stats DropsTail = %d, want %d", q.Stats().DropsTail, len(dropped))
	}
}

func TestSFQCoDelCoDelActsPerBin(t *testing.T) {
	q := NewSFQCoDel(64, 100000*packet.MTU)
	for i := int64(0); i < 5000; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	now := units.Time(0)
	for i := 0; i < 4000; i++ {
		now = now.Add(2 * units.Millisecond)
		q.Dequeue(now)
	}
	if q.Stats().DropsAQM == 0 {
		t.Fatal("CoDel inside sfqCoDel never engaged on a standing queue")
	}
}

func TestSFQCoDelEmptyDequeue(t *testing.T) {
	q := NewSFQCoDel(4, 10*packet.MTU)
	if q.Dequeue(0) != nil {
		t.Fatal("empty dequeue should return nil")
	}
}

func TestSFQCoDelValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSFQCoDel(0, 10) },
		func() { NewSFQCoDel(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSFQCoDelConservationProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		r := rng.New(seed)
		q := NewSFQCoDel(16, 20*packet.MTU)
		ops := int(opsRaw % 800)
		var now units.Time
		var enq, deq int64
		for i := 0; i < ops; i++ {
			now = now.Add(units.Duration(r.Intn(4)) * units.Millisecond)
			if r.Float64() < 0.7 {
				if q.Enqueue(now, mkpkt(r.Intn(5), int64(i))) {
					enq++
				}
			} else if q.Dequeue(now) != nil {
				deq++
			}
		}
		st := q.Stats()
		// Every accepted packet is either delivered, resident, or was
		// dropped after acceptance (overflow eviction or AQM).
		// Note DropsTail counts both arrival rejections and evictions;
		// evictions were previously counted in Enqueued.
		resident := int64(q.Len())
		return st.Enqueued >= deq+resident &&
			st.Enqueued-deq-resident <= st.Drops() &&
			int64(q.Bytes()) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSFQCoDelStatsBytes(t *testing.T) {
	q := NewSFQCoDel(16, 5*packet.MTU)
	for i := int64(0); i < 5; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	if q.Bytes() != 5*packet.MTU {
		t.Fatalf("Bytes = %d", q.Bytes())
	}
	q.Dequeue(0)
	if q.Bytes() != 4*packet.MTU {
		t.Fatalf("Bytes after dequeue = %d", q.Bytes())
	}
}

func TestSFQCoDelHashSpreadsFlows(t *testing.T) {
	q := NewSFQCoDel(64, 100000*packet.MTU)
	bins := map[int]bool{}
	for flow := 0; flow < 32; flow++ {
		bins[q.bin(flow)] = true
	}
	// 32 flows into 64 bins: expect few collisions (at least 24
	// distinct bins with a decent hash).
	if len(bins) < 24 {
		t.Fatalf("only %d distinct bins for 32 flows", len(bins))
	}
}

func TestSFQCoDelSameFlowSameBin(t *testing.T) {
	q := NewSFQCoDel(64, 1000*packet.MTU)
	if q.bin(7) != q.bin(7) {
		t.Fatal("hash not deterministic")
	}
}

// --- differential oracle ----------------------------------------------

// refSFQCoDel is the sfqCoDel this package shipped before the sparse
// rewrite, kept verbatim as the differential oracle: 1 024 eager *CoDel
// bins, a sliding service slice, an O(bins) Len and an O(bins) victim
// search. TestSFQCoDelMatchesReference drives it beside SFQCoDel.
type refSFQCoDel struct {
	bins     []*CoDel
	capBytes int // shared capacity across all bins
	bytes    int
	stats    Stats
	obs      Observer
	pool     *packet.Pool

	// Deficit round-robin state.
	active  []int // bin indices in service order
	inList  []bool
	deficit []int
	quantum int
}

func newRefSFQCoDel(nbins, capBytes int) *refSFQCoDel {
	if nbins <= 0 {
		panic("queue: NewSFQCoDel with non-positive bin count")
	}
	if capBytes <= 0 {
		panic("queue: NewSFQCoDel with non-positive capacity")
	}
	s := &refSFQCoDel{
		bins:     make([]*CoDel, nbins),
		capBytes: capBytes,
		inList:   make([]bool, nbins),
		deficit:  make([]int, nbins),
		quantum:  packet.MTU,
	}
	for i := range s.bins {
		// Each bin's backstop is the shared capacity; the shared cap is
		// enforced in Enqueue.
		s.bins[i] = NewCoDel(capBytes)
	}
	return s
}

func (s *refSFQCoDel) Observe(o Observer) {
	s.obs = o
	for _, b := range s.bins {
		b.Observe(o)
	}
}

func (s *refSFQCoDel) SetPool(pl *packet.Pool) {
	s.pool = pl
	for _, b := range s.bins {
		b.SetPool(pl)
	}
}

func (s *refSFQCoDel) SetECNMarking(on bool) {
	for _, b := range s.bins {
		b.SetECNMarking(on)
	}
}

func (s *refSFQCoDel) bin(flow int) int {
	// Fibonacci hash of the flow ID; flows in our simulations are small
	// integers, so mixing matters more than collision resistance.
	h := uint64(flow+1) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(s.bins)))
}

func (s *refSFQCoDel) Enqueue(now units.Time, p *packet.Packet) bool {
	for s.bytes+p.Size > s.capBytes {
		longest := -1
		for i, b := range s.bins {
			if b.Len() > 0 && (longest < 0 || b.Len() > s.bins[longest].Len()) {
				longest = i
			}
		}
		if longest < 0 {
			// Nothing queued anywhere yet the packet alone exceeds
			// capacity: reject it.
			s.stats.DropsTail++
			s.stats.BytesDropped += int64(p.Size)
			if s.obs != nil {
				s.obs(now, TailDrop, p)
			}
			return false
		}
		victim := s.bins[longest].q.pop()
		s.bytes -= victim.Size
		s.stats.DropsTail++
		s.stats.BytesDropped += int64(victim.Size)
		if s.obs != nil {
			s.obs(now, TailDrop, victim)
		}
	}
	i := s.bin(p.Flow)
	if !s.bins[i].Enqueue(now, p) {
		// Cannot happen: shared cap <= bin backstop and we made room.
		s.stats.DropsTail++
		return false
	}
	s.bytes += p.Size
	s.stats.Enqueued++
	if !s.inList[i] {
		s.inList[i] = true
		s.deficit[i] = s.quantum
		s.active = append(s.active, i)
	}
	return true
}

func (s *refSFQCoDel) Dequeue(now units.Time) *packet.Packet {
	for len(s.active) > 0 {
		i := s.active[0]
		b := s.bins[i]
		if b.Len() == 0 {
			// Bin emptied (possibly by overflow or CoDel drops).
			s.active = s.active[1:]
			s.inList[i] = false
			continue
		}
		head := b.q.peek()
		if s.deficit[i] < head.Size {
			// Move to the back of the service list with a fresh quantum.
			s.active = append(s.active[1:], i)
			s.deficit[i] += s.quantum
			continue
		}
		before := b.Bytes()
		p := b.Dequeue(now)
		s.bytes -= before - b.Bytes()
		if p == nil {
			// CoDel dropped the rest of the bin.
			s.active = s.active[1:]
			s.inList[i] = false
			continue
		}
		s.deficit[i] -= p.Size
		s.stats.Dequeued++
		if b.Len() == 0 {
			s.active = s.active[1:]
			s.inList[i] = false
		}
		return p
	}
	return nil
}

func (s *refSFQCoDel) Len() int {
	n := 0
	for _, b := range s.bins {
		n += b.Len()
	}
	return n
}

func (s *refSFQCoDel) Bytes() int { return s.bytes }

func (s *refSFQCoDel) Stats() Stats {
	st := s.stats
	for _, b := range s.bins {
		bst := b.Stats()
		st.DropsAQM += bst.DropsAQM
		st.MarksECN += bst.MarksECN
		st.BytesDropped += bst.BytesDropped
	}
	return st
}

// lockstepQ is what a lockstep trace needs of each of its two queues.
type lockstepQ interface {
	Enqueue(now units.Time, p *packet.Packet) bool
	Dequeue(now units.Time) *packet.Packet
	Len() int
	Bytes() int
	Stats() Stats
	Observe(Observer)
}

// side is one of the two queues a lockstep trace drives, with the log
// its observer writes.
type side struct {
	q lockstepQ
	// pool, when set, is the pool q recycles into: the trace then
	// checks that every packet q accepts is on its free list when
	// Enqueue returns.
	pool *packet.Pool
	log  []string
	// passes counts the arrivals a pass trace sent through Pass.
	passes int
}

// pooled returns a side driving q with a pool of its own attached.
func pooled(q lockstepQ) *side {
	s := &side{q: q, pool: &packet.Pool{}}
	q.(PoolAware).SetPool(s.pool)
	return s
}

// recycled fails unless p, which the side's queue has just accepted,
// is the packet on top of its pool's free list.
func (s *side) recycled(t *testing.T, step int, p *packet.Packet) {
	t.Helper()
	if s.pool == nil {
		return
	}
	if got := s.pool.Get(); got != p {
		t.Fatalf("step %d: an accepted packet is not on the pool's free list", step)
	}
	s.pool.Put(p)
}

// record points the queue's observer at the side's log.
func (s *side) record() {
	s.q.Observe(func(now units.Time, ev Event, p *packet.Packet) {
		kind := [...]string{TailDrop: "drop_tail", AQMDrop: "drop_aqm", CEMark: "mark", Enqueued: "enqueue"}[ev]
		s.log = append(s.log, fmt.Sprintf("%s t=%d flow=%d seq=%d size=%d", kind, now, p.Flow, p.Seq, p.Size))
	})
}

// recordDepth is record with the queue's depth as the observer reads
// it during the call.
func (s *side) recordDepth() {
	s.q.Observe(func(now units.Time, ev Event, p *packet.Packet) {
		kind := [...]string{TailDrop: "drop_tail", AQMDrop: "drop_aqm", CEMark: "mark", Enqueued: "enqueue"}[ev]
		s.log = append(s.log, fmt.Sprintf("%s t=%d flow=%d seq=%d size=%d ce=%v len=%d bytes=%d",
			kind, now, p.Flow, p.Seq, p.Size, p.CE, s.q.Len(), s.q.Bytes()))
	})
}

// lockstepTrace describes a seeded random enqueue/dequeue trace.
type lockstepTrace struct {
	seed     uint64
	steps    int
	flows    int
	sizes    []int          // packet sizes, drawn uniformly
	ectShare float64        // share of packets that are ECN-capable
	maxGap   units.Duration // largest time step between operations
	// each, when non-nil, runs before every step (tests toggle modes
	// mid-trace and count the situations they exist to provoke).
	each func(step int)
	// pass models the link the queues feed: a dequeue step is the end
	// of a transmission, and the link is busy while what it served is
	// on the wire. An arrival that finds the link idle and the queues
	// empty goes through Pass on side a and through Enqueue and then
	// Dequeue on side b, and the link is then busy with it. So does one
	// arrival in four that finds the queues empty and the link busy:
	// Pass's contract holds on any empty queue, whatever Dequeue last
	// left behind, and an idle link always follows a Dequeue that found
	// nothing.
	pass bool
}

// run drives both sides through the trace, giving each its own copy of
// every packet, and fails at the first operation after which they
// differ in the returned value, Len, Bytes, Stats or recorder log, or
// after which a pooled side's accepted packet is not in its pool. The
// arrival share swings between filling and draining phases so bins
// both overflow and empty out; one step in 64 jumps time far enough
// for CoDel to leave and re-enter its dropping state.
func (tr lockstepTrace) run(t *testing.T, a, b *side) {
	t.Helper()
	r := rng.New(tr.seed).Split("lockstep")
	now := units.Time(0)
	arrive := 0.8
	busy := false // the modelled link's, with tr.pass
	for step := 0; step < tr.steps; step++ {
		if tr.each != nil {
			tr.each(step)
		}
		if step%400 == 0 {
			arrive = []float64{0.9, 0.6, 0.25}[r.Intn(3)]
		}
		now = now.Add(units.Duration(r.Intn(int(tr.maxGap) + 1)))
		if r.Intn(64) == 0 {
			now = now.Add(units.Duration(r.Intn(300)) * units.Millisecond)
		}
		what := "dequeue"
		if r.Float64() < arrive {
			what = "enqueue"
			pa := &packet.Packet{
				Flow: r.Intn(tr.flows), Seq: int64(step), Size: tr.sizes[r.Intn(len(tr.sizes))],
				ECT: r.Float64() < tr.ectShare,
			}
			pb := new(packet.Packet)
			*pb = *pa
			want := *pa
			if tr.pass && a.q.Len() == 0 && (!busy || r.Intn(4) == 0) {
				what = "pass"
				gets, free := a.pool.Gets, a.pool.Free()
				oa := a.q.(Discipline).Pass(now, pa)
				a.passes++
				if a.pool.Gets != gets || a.pool.Free() != free {
					t.Fatalf("step %d: Pass touched the pool", step)
				}
				ob := b.q.Enqueue(now, pb)
				if ob {
					b.recycled(t, step, pb)
				}
				served := b.q.Dequeue(now)
				if oa != ob || oa != (served != nil) || oa && *pa != *served {
					t.Fatalf("step %d: Pass of %+v accepted %v as %+v; Enqueue accepted %v, Dequeue served %+v",
						step, want, oa, pa, ob, served)
				}
				busy = oa
			} else if oa, ob := a.q.Enqueue(now, pa), b.q.Enqueue(now, pb); oa != ob {
				t.Fatalf("step %d: enqueue of %+v accepted %v vs %v", step, want, oa, ob)
			} else if oa {
				a.recycled(t, step, pa)
				b.recycled(t, step, pb)
			}
		} else {
			pa, pb := a.q.Dequeue(now), b.q.Dequeue(now)
			if (pa == nil) != (pb == nil) || pa != nil && *pa != *pb {
				t.Fatalf("step %d: dequeued %+v vs %+v", step, pa, pb)
			}
			busy = pa != nil
		}
		if a.q.Len() != b.q.Len() || a.q.Bytes() != b.q.Bytes() {
			t.Fatalf("step %d (%s): Len/Bytes %d/%d vs %d/%d", step, what, a.q.Len(), a.q.Bytes(), b.q.Len(), b.q.Bytes())
		}
		if sa, sb := a.q.Stats(), b.q.Stats(); sa != sb {
			t.Fatalf("step %d (%s): stats %+v vs %+v", step, what, sa, sb)
		}
		if len(a.log) != len(b.log) || len(a.log) > 0 && a.log[len(a.log)-1] != b.log[len(b.log)-1] {
			t.Fatalf("step %d (%s): recorder logs diverge:\n%v\n%v", step, what, tail(a.log), tail(b.log))
		}
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("recorder callback %d: %q vs %q", i, a.log[i], b.log[i])
		}
	}
}

func tail(log []string) []string {
	if len(log) > 4 {
		return log[len(log)-4:]
	}
	return log
}

// binSum is Len computed the old way, bin by bin.
func (s *SFQCoDel) binSum() (pkts, bytes int) {
	for i := range s.live {
		pkts += s.live[i].q.len()
		bytes += s.live[i].q.bytes
	}
	return pkts, bytes
}

// TestSFQCoDelMatchesReference drives the sparse sfqCoDel and the
// implementation it replaced through the same seeded traces and
// requires them to agree after every operation: returned packets, Len,
// Bytes, Stats, and the order of drop and mark callbacks. Each case
// names the situation it provokes and asserts the trace reached it.
func TestSFQCoDelMatchesReference(t *testing.T) {
	mtu := []int{packet.MTU}
	cases := []struct {
		name      string
		nbins     int
		capBytes  int
		ecn, pool bool
		tr        lockstepTrace
		reached   func(st Stats) bool
	}{
		{"colliding-flows", 4, 60 * packet.MTU, false, true,
			lockstepTrace{steps: 20000, flows: 13, sizes: mtu, maxGap: 2 * units.Millisecond},
			func(st Stats) bool { return st.DropsAQM > 0 && st.DropsTail > 0 }},
		{"overflow-ties", 16, 8 * packet.MTU, false, false,
			lockstepTrace{steps: 20000, flows: 4, sizes: mtu, maxGap: units.Millisecond},
			func(st Stats) bool { return st.DropsTail > 1000 }},
		{"codel-bursts", SFQCoDelBins, 400 * packet.MTU, false, true,
			lockstepTrace{steps: 30000, flows: 6, sizes: mtu, maxGap: 4 * units.Millisecond},
			func(st Stats) bool { return st.DropsAQM > 100 }},
		{"ecn-marking", 64, 200 * packet.MTU, true, true,
			lockstepTrace{steps: 30000, flows: 8, sizes: mtu, ectShare: 0.7, maxGap: 3 * units.Millisecond},
			func(st Stats) bool { return st.MarksECN > 0 && st.DropsAQM > 0 }},
		{"sub-mtu", 8, 30 * packet.MTU, true, true,
			lockstepTrace{steps: 30000, flows: 10, sizes: []int{packet.MTU, packet.ACKSize, 700, 100}, ectShare: 0.5, maxGap: 2 * units.Millisecond},
			func(st Stats) bool { return st.DropsTail > 0 && st.DropsAQM+st.MarksECN > 0 }},
		{"oversize-arrival", 8, 2 * packet.MTU, false, true,
			lockstepTrace{steps: 5000, flows: 3, sizes: []int{packet.MTU, 3 * packet.MTU}, maxGap: units.Millisecond},
			func(st Stats) bool { return st.DropsTail > 0 }},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				got, ref := NewSFQCoDel(tc.nbins, tc.capBytes), newRefSFQCoDel(tc.nbins, tc.capBytes)
				a, b := &side{q: got}, &side{q: ref}
				if tc.pool {
					a, b = pooled(got), pooled(ref)
				}
				got.SetECNMarking(tc.ecn)
				ref.SetECNMarking(tc.ecn)
				a.record()
				b.record()
				ties := 0
				tr := tc.tr
				tr.seed = seed
				tr.each = func(step int) {
					if n, bytes := got.binSum(); n != got.Len() || bytes != got.Bytes() {
						t.Fatalf("step %d: Len/Bytes %d/%d, bins hold %d/%d", step, got.Len(), got.Bytes(), n, bytes)
					}
					if ref.bytes+packet.MTU > ref.capBytes && tiedForLongest(ref) {
						ties++
					}
					// Modes and recorders set while bins already exist
					// must reach them, as they reached the eager bins.
					if step == tr.steps/2 {
						got.SetECNMarking(!tc.ecn)
						ref.SetECNMarking(!tc.ecn)
						a.record()
						b.record()
					}
				}
				tr.run(t, a, b)
				if !tc.reached(got.Stats()) {
					t.Fatalf("trace never reached the case it is named for: %+v", got.Stats())
				}
				if tc.name == "overflow-ties" && ties < 100 {
					t.Fatalf("only %d overflows found equal-length longest bins", ties)
				}
			})
		}
	}
}

// tiedForLongest reports whether two or more of the reference's bins
// share the greatest length, so that an overflow now exercises the
// tie-break.
func tiedForLongest(s *refSFQCoDel) bool {
	best, n := 0, 0
	for _, b := range s.bins {
		switch l := b.Len(); {
		case l > best:
			best, n = l, 1
		case l == best && l > 0:
			n++
		}
	}
	return n > 1
}

// TestSFQCoDelBinInvariantPanics pins the invariant the old code
// counted as a drop: a bin cannot refuse a packet the shared buffer
// has room for.
func TestSFQCoDelBinInvariantPanics(t *testing.T) {
	q := NewSFQCoDel(4, 10*packet.MTU)
	q.Enqueue(0, mkpkt(1, 0))
	q.live[0].capBytes = packet.MTU // corrupt the bin's backstop
	defer func() {
		if recover() == nil {
			t.Fatal("a bin rejecting a packet the buffer had room for must panic")
		}
	}()
	q.Enqueue(0, mkpkt(1, 1))
}
