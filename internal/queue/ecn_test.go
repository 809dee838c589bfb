package queue

import (
	"testing"

	"learnability/internal/packet"
	"learnability/internal/rng"
	"learnability/internal/units"
)

func mkect(flow int, seq int64) *packet.Packet {
	p := mkpkt(flow, seq)
	p.ECT = true
	return p
}

// standingQueue fills q at t=0 and drains it slowly enough that the
// sojourn stays far above the CoDel target, forcing AQM action.
func standingQueue(q Discipline, n int, ect bool) units.Time {
	for i := int64(0); i < int64(n); i++ {
		if ect {
			q.Enqueue(0, mkect(int(i%4), i))
		} else {
			q.Enqueue(0, mkpkt(int(i%4), i))
		}
	}
	now := units.Time(0)
	for i := 0; i < n; i++ {
		now = now.Add(2 * units.Millisecond)
		q.Dequeue(now)
	}
	return now
}

// --- nil-pool regressions -------------------------------------------
//
// Both disciplines recycle dropped packets through an optional pool.
// Constructed bare (no SetPool), an AQM drop or a victim eviction must
// still work and count; these pin the nil guards in CoDel.drop and the
// SFQCoDel overflow path.

func TestCoDelAQMDropWithoutPool(t *testing.T) {
	q := NewCoDel(10000 * packet.MTU) // no SetPool
	standingQueue(q, 2000, false)
	if q.Stats().DropsAQM == 0 {
		t.Fatal("trace never forced an AQM drop; regression test is inert")
	}
}

func TestSFQCoDelVictimDropWithoutPool(t *testing.T) {
	q := NewSFQCoDel(16, 4*packet.MTU) // no SetPool
	accepted := 0
	for i := int64(0); i < 10; i++ {
		if q.Enqueue(0, mkpkt(int(i), i)) {
			accepted++
		}
	}
	st := q.Stats()
	if accepted != 10 {
		t.Fatalf("victim eviction should accept every arrival, got %d/10", accepted)
	}
	if st.DropsTail == 0 {
		t.Fatal("overflow never evicted a victim; regression test is inert")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d after evictions at a 4-packet cap", q.Len())
	}
}

// --- cross-discipline conservation ----------------------------------

// conservationTrace drives q through a random enqueue/dequeue trace and
// checks packet conservation: every packet the queue accepted is either
// delivered, AQM-dropped, evicted to make room (SFQCoDel victims, which
// land in DropsTail alongside the rejects), or still queued. The
// harness counts rejects itself, so the identity holds for every
// discipline. With ect set, it additionally requires that ECN marking
// replaced dropping entirely: marks happened and no packet hit the AQM
// drop path.
func conservationTrace(t *testing.T, q Discipline, seed uint64, ect, marking bool) {
	t.Helper()
	r := rng.New(seed).Split("conservation")
	now := units.Time(0)
	var nextID int64
	var rejects int64
	arrivalProb := 0.7
	for step := 0; step < 20000; step++ {
		if step%500 == 0 {
			arrivalProb = []float64{0.9, 0.5, 0.2}[r.Intn(3)]
		}
		now = now.Add(units.Duration(r.Intn(int(2 * units.Millisecond))))
		if r.Float64() < arrivalProb {
			var p *packet.Packet
			if ect {
				p = mkect(int(nextID%8), nextID)
			} else {
				p = mkpkt(int(nextID%8), nextID)
			}
			if !q.Enqueue(now, p) {
				rejects++
			}
			nextID++
		} else {
			if p := q.Dequeue(now); p != nil && p.ECT && !ect {
				t.Fatalf("non-ECT trace delivered an ECT packet %d", p.Seq)
			}
		}
	}
	st := q.Stats()
	victims := st.DropsTail - rejects
	if victims < 0 {
		t.Fatalf("DropsTail %d below harness reject count %d", st.DropsTail, rejects)
	}
	if st.Enqueued != st.Dequeued+st.DropsAQM+victims+int64(q.Len()) {
		t.Fatalf("conservation violated: %+v victims=%d len=%d", st, victims, q.Len())
	}
	if ect && marking {
		if st.DropsAQM != 0 {
			t.Fatalf("marking discipline AQM-dropped %d ECT packets", st.DropsAQM)
		}
		if st.MarksECN == 0 {
			t.Fatal("marking discipline never marked; trace too gentle")
		}
	}
	if !ect && st.MarksECN != 0 {
		t.Fatalf("non-ECT trace produced %d ECN marks", st.MarksECN)
	}
}

func TestConservationAcrossDisciplines(t *testing.T) {
	mk := []struct {
		name    string
		marking bool
		build   func(ecn bool) Discipline
	}{
		{"DropTail", false, func(bool) Discipline { return NewDropTail(50 * packet.MTU) }},
		{"MarkingDropTail", true, func(bool) Discipline { return markingDropTail(50*packet.MTU, 10*packet.MTU) }},
		{"CoDel", true, func(ecn bool) Discipline {
			q := NewCoDel(50 * packet.MTU)
			q.SetECNMarking(ecn)
			return q
		}},
		{"SFQCoDel", true, func(ecn bool) Discipline {
			q := NewSFQCoDel(16, 50*packet.MTU)
			q.SetECNMarking(ecn)
			return q
		}},
	}
	for _, tc := range mk {
		for _, ect := range []bool{false, true} {
			for _, pooled := range []bool{false, true} {
				name := tc.name
				if ect {
					name += "/ECN"
				}
				if pooled {
					name += "/pool"
				}
				t.Run(name, func(t *testing.T) {
					q := tc.build(ect)
					if pooled {
						if pa, ok := q.(PoolAware); ok {
							pa.SetPool(&packet.Pool{})
						}
					}
					conservationTrace(t, q, 7, ect, tc.marking)
				})
			}
		}
	}
}

// --- ECN marking semantics ------------------------------------------

func TestCoDelECNMarksInsteadOfDropping(t *testing.T) {
	q := NewCoDel(10000 * packet.MTU)
	q.SetECNMarking(true)
	marked := 0
	for i := int64(0); i < 2000; i++ {
		q.Enqueue(0, mkect(1, i))
	}
	now := units.Time(0)
	for i := 0; i < 2000; i++ {
		now = now.Add(2 * units.Millisecond)
		if p := q.Dequeue(now); p != nil && p.CE {
			marked++
		}
	}
	st := q.Stats()
	if st.MarksECN == 0 {
		t.Fatal("marking CoDel never marked under a standing queue")
	}
	if st.DropsAQM != 0 {
		t.Fatalf("marking CoDel dropped %d ECT packets", st.DropsAQM)
	}
	if int64(marked) != st.MarksECN {
		t.Fatalf("delivered %d CE packets but MarksECN = %d", marked, st.MarksECN)
	}
}

func TestCoDelECNStillDropsNonECT(t *testing.T) {
	// Marking only spares ECN-capable packets; legacy traffic through
	// the same queue is dropped as before.
	q := NewCoDel(10000 * packet.MTU)
	q.SetECNMarking(true)
	standingQueue(q, 2000, false)
	st := q.Stats()
	if st.DropsAQM == 0 {
		t.Fatal("marking CoDel spared non-ECT packets")
	}
	if st.MarksECN != 0 {
		t.Fatalf("marking CoDel marked %d non-ECT packets", st.MarksECN)
	}
}

func TestCoDelECNOffNeverMarks(t *testing.T) {
	q := NewCoDel(10000 * packet.MTU)
	standingQueue(q, 2000, true) // ECT traffic, marking off
	st := q.Stats()
	if st.MarksECN != 0 {
		t.Fatalf("marking disabled but MarksECN = %d", st.MarksECN)
	}
	if st.DropsAQM == 0 {
		t.Fatal("ECT packets must still drop when marking is off")
	}
}

func TestSFQCoDelECNMarks(t *testing.T) {
	q := NewSFQCoDel(16, 10000*packet.MTU)
	q.SetECNMarking(true)
	standingQueue(q, 2000, true)
	st := q.Stats()
	if st.MarksECN == 0 {
		t.Fatal("marking sfqCoDel never marked under a standing queue")
	}
	if st.DropsAQM != 0 {
		t.Fatalf("marking sfqCoDel dropped %d ECT packets", st.DropsAQM)
	}
}

// --- MarkingDropTail ------------------------------------------------

func TestMarkingDropTailThreshold(t *testing.T) {
	q := markingDropTail(10*packet.MTU, 3*packet.MTU)
	// First three packets fit under the threshold unmarked; from the
	// fourth on, occupancy crosses it and ECT arrivals are marked.
	for i := int64(0); i < 6; i++ {
		if !q.Enqueue(0, mkect(1, i)) {
			t.Fatalf("packet %d rejected below capacity", i)
		}
	}
	for i := int64(0); i < 6; i++ {
		p := q.Dequeue(0)
		wantCE := i >= 3
		if p.CE != wantCE {
			t.Fatalf("packet %d CE = %v, want %v", i, p.CE, wantCE)
		}
	}
	if got := q.Stats().MarksECN; got != 3 {
		t.Fatalf("MarksECN = %d, want 3", got)
	}
}

func TestMarkingDropTailIgnoresNonECT(t *testing.T) {
	q := markingDropTail(10*packet.MTU, packet.MTU)
	for i := int64(0); i < 5; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	for i := int64(0); i < 5; i++ {
		if p := q.Dequeue(0); p.CE {
			t.Fatalf("non-ECT packet %d marked", i)
		}
	}
	if got := q.Stats().MarksECN; got != 0 {
		t.Fatalf("MarksECN = %d for non-ECT traffic", got)
	}
}

func TestMarkingDropTailStillTailDrops(t *testing.T) {
	q := markingDropTail(2*packet.MTU, packet.MTU)
	q.Enqueue(0, mkect(1, 0))
	q.Enqueue(0, mkect(1, 1))
	if q.Enqueue(0, mkect(1, 2)) {
		t.Fatal("expected tail drop at capacity")
	}
	if got := q.Stats().DropsTail; got != 1 {
		t.Fatalf("DropsTail = %d", got)
	}
}

func TestMarkingDropTailValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewDropTail(10).SetLimits(0, 1) },
		func() { NewDropTail(10).SetLimits(10, 0) },
		func() { NewDropTail(10).SetLimits(10, 11) },
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

// markingDropTail is a drop-tail FIFO of capBytes that CE-marks ECT
// arrivals past markBytes.
func markingDropTail(capBytes, markBytes int) *DropTail {
	q := NewDropTail(capBytes)
	q.SetLimits(capBytes, markBytes)
	return q
}
