package queue

import (
	"testing"
	"testing/quick"

	"learnability/internal/packet"
	"learnability/internal/rng"
	"learnability/internal/units"
)

// fresh hands out packets the way a nil pool does: each one newly
// allocated, never recycled.
var fresh *packet.Pool

func mkpkt(flow int, seq int64) *packet.Packet {
	return fresh.Data(flow, seq, 0)
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(100 * packet.MTU)
	for i := int64(0); i < 10; i++ {
		if !q.Enqueue(0, mkpkt(1, i)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	for i := int64(0); i < 10; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d = %v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("dequeue from empty queue should be nil")
	}
}

func TestDropTailOverflow(t *testing.T) {
	q := NewDropTail(3 * packet.MTU)
	accepted := 0
	for i := int64(0); i < 5; i++ {
		if q.Enqueue(0, mkpkt(1, i)) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("accepted %d, want 3", accepted)
	}
	st := q.Stats()
	if st.DropsTail != 2 || st.Enqueued != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Drops() != 2 {
		t.Fatalf("Drops() = %d", st.Drops())
	}
	if st.BytesDropped != 2*packet.MTU {
		t.Fatalf("BytesDropped = %d", st.BytesDropped)
	}
	// Draining one makes room for exactly one more.
	q.Dequeue(0)
	if !q.Enqueue(0, mkpkt(1, 9)) {
		t.Fatal("enqueue after drain rejected")
	}
	if q.Enqueue(0, mkpkt(1, 10)) {
		t.Fatal("enqueue should be rejected again")
	}
}

func TestDropTailBytesAndLen(t *testing.T) {
	q := NewDropTail(10 * packet.MTU)
	q.Enqueue(0, mkpkt(1, 0))
	a := fresh.ACK(mkpkt(1, 0), 0, 0)
	q.Enqueue(0, a)
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if q.Bytes() != packet.MTU+packet.ACKSize {
		t.Fatalf("Bytes = %d", q.Bytes())
	}
	q.Dequeue(0)
	if q.Bytes() != packet.ACKSize {
		t.Fatalf("Bytes after dequeue = %d", q.Bytes())
	}
}

func TestDropTailObserver(t *testing.T) {
	q := NewDropTail(packet.MTU)
	var events []Event
	var seqs []int64
	q.Observe(func(now units.Time, ev Event, p *packet.Packet) {
		events = append(events, ev)
		seqs = append(seqs, p.Seq)
	})
	q.Enqueue(0, mkpkt(1, 0))
	q.Enqueue(0, mkpkt(1, 1))
	if len(events) != 2 || events[0] != Enqueued || seqs[0] != 0 || events[1] != TailDrop || seqs[1] != 1 {
		t.Fatalf("observed events %v of packets %v, want an acceptance of 0 and a tail drop of 1", events, seqs)
	}
}

func TestDropTailPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropTail(0)
}

func TestInfiniteNeverDrops(t *testing.T) {
	q := NewDropTail(Unbounded)
	for i := int64(0); i < 10000; i++ {
		if !q.Enqueue(0, mkpkt(1, i)) {
			t.Fatalf("Infinite rejected packet %d", i)
		}
	}
	if q.Len() != 10000 {
		t.Fatalf("Len = %d", q.Len())
	}
	if q.Stats().Drops() != 0 {
		t.Fatal("Infinite recorded drops")
	}
	for i := int64(0); i < 10000; i++ {
		if p := q.Dequeue(0); p == nil || p.Seq != i {
			t.Fatalf("dequeue %d = %v", i, p)
		}
	}
}

// Property: conservation. enqueued == dequeued + dropped(tail) + resident,
// for any interleaving of operations, and FIFO order is preserved.
func TestPropertyConservation(t *testing.T) {
	f := func(seed uint64, capPkts uint8, opsRaw uint16) bool {
		capacity := (int(capPkts)%32 + 1) * packet.MTU
		ops := int(opsRaw % 500)
		r := rng.New(seed)
		q := NewDropTail(capacity)
		var seq, nextOut int64
		for i := 0; i < ops; i++ {
			if r.Float64() < 0.6 {
				q.Enqueue(0, mkpkt(1, seq))
				seq++
			} else {
				if p := q.Dequeue(0); p != nil {
					if p.Seq < nextOut {
						return false // order violation
					}
					nextOut = p.Seq + 1
				}
			}
		}
		st := q.Stats()
		total := st.Dequeued + st.DropsTail + int64(q.Len())
		return total == seq && st.Enqueued == st.Dequeued+int64(q.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOCompaction(t *testing.T) {
	// Wrap the ring many times over with push/pop cycles.
	q := NewDropTail(Unbounded)
	var seq int64
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			q.Enqueue(0, mkpkt(1, seq))
			seq++
		}
		for i := 0; i < 40; i++ {
			if q.Dequeue(0) == nil {
				t.Fatal("unexpected empty queue")
			}
		}
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("Len=%d Bytes=%d after full drain", q.Len(), q.Bytes())
	}
}
