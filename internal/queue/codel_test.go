package queue

import (
	"testing"

	"learnability/internal/packet"
	"learnability/internal/units"
)

// drainAt dequeues one packet at the given time.
func drainAt(q Discipline, t units.Time) *packet.Packet { return q.Dequeue(t) }

func TestCoDelNoDropsBelowTarget(t *testing.T) {
	q := NewCoDel(1000 * packet.MTU)
	now := units.Time(0)
	// Packets sojourn 1 ms — well below the 5 ms target.
	for i := int64(0); i < 1000; i++ {
		q.Enqueue(now, mkpkt(1, i))
		now = now.Add(units.Millisecond)
		if p := q.Dequeue(now); p == nil {
			t.Fatal("unexpected empty")
		}
	}
	if q.Stats().DropsAQM != 0 {
		t.Fatalf("CoDel dropped %d below target", q.Stats().DropsAQM)
	}
}

func TestCoDelDropsPersistentQueue(t *testing.T) {
	q := NewCoDel(10000 * packet.MTU)
	// Build a standing queue: enqueue at t=0, then dequeue slowly so
	// sojourn stays far above target for much longer than interval.
	for i := int64(0); i < 2000; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	now := units.Time(0)
	for i := 0; i < 1500; i++ {
		now = now.Add(2 * units.Millisecond)
		q.Dequeue(now)
	}
	if q.Stats().DropsAQM == 0 {
		t.Fatal("CoDel never dropped despite persistent standing queue")
	}
}

func TestCoDelDropRateIncreases(t *testing.T) {
	// While in dropping state, intervals between drops shrink
	// (interval/sqrt(count) control law).
	q := NewCoDel(100000 * packet.MTU)
	for i := int64(0); i < 20000; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	var dropTimes []units.Time
	q.Observe(func(now units.Time, _ Event, _ *packet.Packet) { dropTimes = append(dropTimes, now) })
	now := units.Time(0)
	for i := 0; i < 10000; i++ {
		now = now.Add(units.Millisecond)
		q.Dequeue(now)
	}
	if len(dropTimes) < 5 {
		t.Fatalf("only %d drops", len(dropTimes))
	}
	first := dropTimes[1].Sub(dropTimes[0])
	last := dropTimes[len(dropTimes)-1].Sub(dropTimes[len(dropTimes)-2])
	if last >= first {
		t.Fatalf("drop spacing did not shrink: first %v, last %v", first, last)
	}
}

func TestCoDelRecoversWhenQueueDrains(t *testing.T) {
	q := NewCoDel(10000 * packet.MTU)
	for i := int64(0); i < 500; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	now := units.Time(0)
	for q.Len() > 0 {
		now = now.Add(2 * units.Millisecond)
		q.Dequeue(now)
	}
	dropsBefore := q.Stats().DropsAQM
	// Now run below-target traffic; no further drops should occur.
	for i := int64(0); i < 500; i++ {
		q.Enqueue(now, mkpkt(1, 1000+i))
		now = now.Add(units.Millisecond)
		q.Dequeue(now)
	}
	if q.Stats().DropsAQM != dropsBefore {
		t.Fatalf("CoDel kept dropping after queue drained: %d -> %d",
			dropsBefore, q.Stats().DropsAQM)
	}
}

func TestCoDelHardCapBackstop(t *testing.T) {
	q := NewCoDel(2 * packet.MTU)
	q.Enqueue(0, mkpkt(1, 0))
	q.Enqueue(0, mkpkt(1, 1))
	if q.Enqueue(0, mkpkt(1, 2)) {
		t.Fatal("expected tail drop at hard cap")
	}
	if q.Stats().DropsTail != 1 {
		t.Fatalf("DropsTail = %d", q.Stats().DropsTail)
	}
}

func TestCoDelEmptyDequeue(t *testing.T) {
	q := NewCoDel(10 * packet.MTU)
	if q.Dequeue(0) != nil {
		t.Fatal("empty dequeue should be nil")
	}
}

func TestCoDelParamValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCoDel(0) },
		func() { NewCoDelParams(10, 0, CoDelInterval) },
		func() { NewCoDelParams(10, CoDelTarget, 0) },
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

func TestCoDelConservation(t *testing.T) {
	q := NewCoDel(1000 * packet.MTU)
	var enq int64
	now := units.Time(0)
	for i := 0; i < 5000; i++ {
		if i%3 != 0 { // enqueue at 2/3 rate of loop
			if q.Enqueue(now, mkpkt(1, enq)) {
				enq++
			}
		}
		now = now.Add(3 * units.Millisecond)
		q.Dequeue(now)
	}
	st := q.Stats()
	if st.Enqueued != st.Dequeued+st.DropsAQM+int64(q.Len()) {
		t.Fatalf("conservation violated: %+v len=%d", st, q.Len())
	}
}

func TestCoDelCountDecayOnReentry(t *testing.T) {
	// Enter dropping, drain below target briefly, re-enter soon: the
	// drop count resumes near its previous value (count-2) rather than
	// restarting at 1, so the control law stays aggressive against a
	// recurring standing queue.
	q := NewCoDel(100000 * packet.MTU)
	for i := int64(0); i < 5000; i++ {
		q.Enqueue(0, mkpkt(1, i))
	}
	now := units.Time(0)
	for i := 0; i < 3000; i++ {
		now = now.Add(2 * units.Millisecond)
		q.Dequeue(now)
	}
	if !q.dropping || q.count < 3 {
		t.Skip("did not build enough drop state for the decay path")
	}
	prevCount := q.count
	// Drain the rest quickly (sojourn below target resets dropping).
	for q.Len() > 0 {
		q.Dequeue(now)
	}
	// Refill and rebuild a standing queue immediately.
	for i := int64(0); i < 5000; i++ {
		q.Enqueue(now, mkpkt(1, 10000+i))
	}
	for i := 0; i < 600 && !q.dropping; i++ {
		now = now.Add(2 * units.Millisecond)
		q.Dequeue(now)
	}
	if !q.dropping {
		t.Skip("did not re-enter dropping state")
	}
	if q.count <= 1 && prevCount > 3 {
		t.Fatalf("count restarted at %d after recent dropping (prev %d); decay refinement missing",
			q.count, prevCount)
	}
}

func TestCoDelBelowMTUBytesNeverDrops(t *testing.T) {
	// With less than one MTU queued, CoDel must not drop even if the
	// sojourn exceeds the target (the standing-queue guard).
	q := NewCoDel(1000 * packet.MTU)
	now := units.Time(0)
	for i := int64(0); i < 200; i++ {
		q.Enqueue(now, mkpkt(1, i))
		now = now.Add(50 * units.Millisecond) // huge sojourn, but queue len 1
		if q.Dequeue(now) == nil {
			t.Fatal("unexpected empty")
		}
	}
	if q.Stats().DropsAQM != 0 {
		t.Fatalf("CoDel dropped %d with sub-MTU backlog", q.Stats().DropsAQM)
	}
}
