package packet

import (
	"testing"

	"learnability/internal/units"
)

func TestPoolRecycles(t *testing.T) {
	pl := &Pool{}
	p := pl.Data(1, 2, units.Time(3))
	if p.Flow != 1 || p.Seq != 2 || p.Size != MTU || p.SentAt != units.Time(3) {
		t.Fatalf("Data = %+v", p)
	}
	p.Retransmit = true
	p.EnqueuedAt = 99
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("pool did not recycle the freed packet")
	}
	if *q != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	if pl.Reuses != 1 {
		t.Fatalf("Reuses = %d, want 1", pl.Reuses)
	}
}

func TestNilPoolAllocates(t *testing.T) {
	var pl *Pool
	p := pl.Data(1, 2, 3)
	if p == nil || p.Size != MTU {
		t.Fatalf("nil pool Data = %+v", p)
	}
	pl.Put(p) // must not panic
	if pl.Get() == p {
		t.Fatal("nil pool recycled a packet")
	}
}

func TestDisabledPoolAllocates(t *testing.T) {
	pl := &Pool{}
	p := pl.Get()
	pl.Put(p)
	pl.Disable()
	if pl.Get() == p {
		t.Fatal("disabled pool recycled a packet")
	}
	pl.Put(p)
	if pl.Get() == p {
		t.Fatal("disabled pool accepted a Put")
	}
}

func TestPoolACKEchoesCE(t *testing.T) {
	pl := &Pool{}
	p := pl.Data(1, 3, 0)
	p.ECT, p.CE = true, true
	a := pl.ACK(p, 3, 0)
	if !a.CE {
		t.Fatal("pooled ACK did not echo the data packet's CE mark")
	}
	// Recycling must scrub the ECN bits: a marked packet returned to
	// the pool comes back clean.
	pl.Put(p)
	pl.Put(a)
	for i := 0; i < 4; i++ {
		q := pl.Get()
		if q.ECT || q.CE {
			t.Fatalf("recycled packet kept ECN bits: ECT=%v CE=%v", q.ECT, q.CE)
		}
		pl.Put(q)
	}
}

func TestPoolCloneCopiesARecycledPacket(t *testing.T) {
	pl := &Pool{}
	p := pl.Data(1, 2, 3)
	pl.Put(p)
	v := Packet{Flow: 4, Seq: 5, Size: ACKSize, SentAt: 6, IsACK: true, AckSeq: 7, AckedSeq: 8,
		EchoSentAt: 9, ReceivedAt: 10, Retransmit: true, EnqueuedAt: 11, ECT: true, CE: true}
	q := pl.Clone(&v)
	if q != p || *q != v {
		t.Fatalf("Clone = %p %+v, want the recycled %p holding %+v", q, *q, p, v)
	}
	if pl.Gets != 2 || pl.Reuses != 1 {
		t.Fatalf("Gets %d Reuses %d, want 2 and 1", pl.Gets, pl.Reuses)
	}
	var nilPool *Pool
	if c := nilPool.Clone(&v); *c != v {
		t.Fatalf("nil pool Clone = %+v, want %+v", *c, v)
	}
}
