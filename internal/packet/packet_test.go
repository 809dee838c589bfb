package packet

import (
	"testing"

	"learnability/internal/units"
)

func TestDataPacket(t *testing.T) {
	p := new(Pool).Data(3, 17, units.Time(5*units.Millisecond))
	if p.Flow != 3 || p.Seq != 17 || p.Size != MTU || p.IsACK {
		t.Fatalf("Data = %+v", p)
	}
	if p.SentAt != units.Time(5*units.Millisecond) {
		t.Fatalf("SentAt = %v", p.SentAt)
	}
}

// TestACK checks a pooled ACK field for field, on a fresh packet and on
// a recycled one that a data packet of another flow left dirty: the
// recycled ACK must carry nothing of the packet it reuses.
func TestACK(t *testing.T) {
	now := units.Time(42 * units.Millisecond)
	want := Packet{Flow: 1, Size: ACKSize, IsACK: true, AckSeq: 7, AckedSeq: 9,
		EchoSentAt: units.Time(units.Millisecond), ReceivedAt: now}
	pl := &Pool{}
	p := pl.Data(1, 9, units.Time(units.Millisecond))
	if a := pl.ACK(p, 7, now); *a != want {
		t.Fatalf("ACK = %+v, want %+v", *a, want)
	}
	dirty := pl.Data(4, 10, 3)
	dirty.Retransmit, dirty.EnqueuedAt, dirty.ECT = true, 5, true
	pl.Put(dirty)
	if a := pl.ACK(p, 7, now); a != dirty || *a != want {
		t.Fatalf("ACK on a recycled packet = %p %+v, want %p %+v", a, *a, dirty, want)
	}
}

func TestACKEchoesCE(t *testing.T) {
	pl := &Pool{}
	p := pl.Data(1, 9, 0)
	p.ECT = true
	p.CE = true
	a := pl.ACK(p, 9, 0)
	if !a.CE {
		t.Fatal("ACK did not echo the data packet's CE mark")
	}
	if a.ECT {
		t.Fatal("ACKs are not ECN-capable; ECT must stay clear")
	}
	if a2 := pl.ACK(pl.Data(1, 10, 0), 10, 0); a2.CE {
		t.Fatal("ACK invented a CE mark for an unmarked packet")
	}
}
