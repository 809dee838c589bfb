package netsim

import (
	"testing"

	"learnability/internal/packet"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// captureEgress records transmitted packets without a network.
type captureEgress struct {
	sent []*packet.Packet
}

func (c *captureEgress) Deliver(now units.Time, p *packet.Packet) {
	c.sent = append(c.sent, p)
}

// harness wires a sender to a capture egress for direct ACK injection.
type harness struct {
	sched *sim.Scheduler
	snd   *Sender
	out   *captureEgress
	alg   *fixedCC
	stats *FlowStats
}

func newHarness(window float64) *harness {
	h := &harness{
		sched: sim.New(),
		out:   &captureEgress{},
		alg:   &fixedCC{w: window},
		stats: &FlowStats{Flow: 0},
	}
	h.snd = NewSender(h.sched, 0, h.alg, h.out, h.stats)
	return h
}

// ack crafts a cumulative+selective ACK: cum is the cumulative seq,
// acked the packet that triggered it.
func (h *harness) ack(cum, acked int64, at units.Duration) {
	h.sched.At(units.Time(at), func() {
		h.snd.OnAck(h.sched.Now(), &packet.Packet{
			Flow:       0,
			IsACK:      true,
			AckSeq:     cum,
			AckedSeq:   acked,
			EchoSentAt: 0,
			ReceivedAt: h.sched.Now(),
		})
	})
	h.sched.Run(units.Time(at))
}

func (h *harness) start() {
	h.snd.SetOn(0, true)
	h.sched.Run(0)
}

func TestSenderInitialBurstRespectsWindow(t *testing.T) {
	h := newHarness(5)
	h.start()
	if len(h.out.sent) != 5 {
		t.Fatalf("sent %d packets, want window of 5", len(h.out.sent))
	}
	for i, p := range h.out.sent {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d", i, p.Seq)
		}
		if p.Retransmit {
			t.Fatalf("packet %d marked retransmit", i)
		}
	}
}

func TestSenderNewAckSlidesWindow(t *testing.T) {
	h := newHarness(5)
	h.start()
	h.ack(0, 0, 10*units.Millisecond) // packet 0 delivered
	if len(h.out.sent) != 6 {
		t.Fatalf("sent %d, want 6 (window slid by one)", len(h.out.sent))
	}
	if h.snd.Outstanding() != 5 {
		t.Fatalf("outstanding = %d, want 5", h.snd.Outstanding())
	}
}

func TestSenderSackFastRetransmit(t *testing.T) {
	h := newHarness(8)
	h.start() // seqs 0..7 in flight
	// Packet 0 is lost; 1, 2, 3 arrive (cum stays -1).
	h.ack(-1, 1, 10*units.Millisecond)
	h.ack(-1, 2, 11*units.Millisecond)
	if h.alg.losses != 0 {
		t.Fatal("loss declared before three later deliveries")
	}
	h.ack(-1, 3, 12*units.Millisecond)
	if h.alg.losses != 1 {
		t.Fatalf("losses = %d, want 1 after 3 later deliveries", h.alg.losses)
	}
	// The retransmission of seq 0 must have been sent.
	found := false
	for _, p := range h.out.sent {
		if p.Seq == 0 && p.Retransmit {
			found = true
		}
	}
	if !found {
		t.Fatalf("no fast retransmission of seq 0; sent: %d pkts", len(h.out.sent))
	}
	if h.stats.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1", h.stats.Retransmits)
	}
}

func TestSenderOneLossEventPerWindow(t *testing.T) {
	h := newHarness(10)
	h.start() // 0..9 in flight
	// Packets 0 and 1 both lost; 2..6 arrive.
	at := 10 * units.Millisecond
	for _, seq := range []int64{2, 3, 4, 5, 6} {
		h.ack(-1, seq, at)
		at += units.Millisecond
	}
	if h.alg.losses != 1 {
		t.Fatalf("losses = %d; multiple holes in one window must be one loss event", h.alg.losses)
	}
	// Both holes retransmitted.
	retx := map[int64]bool{}
	for _, p := range h.out.sent {
		if p.Retransmit {
			retx[p.Seq] = true
		}
	}
	if !retx[0] || !retx[1] {
		t.Fatalf("holes not both retransmitted: %v", retx)
	}
}

func TestSenderRecoveryExitsAndNewEpisodeCounts(t *testing.T) {
	h := newHarness(6)
	h.start() // 0..5
	// Lose 0, deliver 1..4 -> loss episode 1.
	at := 10 * units.Millisecond
	for _, seq := range []int64{1, 2, 3, 4} {
		h.ack(-1, seq, at)
		at += units.Millisecond
	}
	if h.alg.losses != 1 {
		t.Fatalf("losses = %d", h.alg.losses)
	}
	// Retransmission arrives: cum jumps to 5, the window slides, and
	// new packets go out. A further hole at seq 6 would still fall
	// inside the first recovery episode (recover points past it), so
	// first acknowledge beyond the recovery point...
	h.ack(5, 0, 30*units.Millisecond)
	h.ack(8, 8, 40*units.Millisecond) // sndUna=9 > recover: episode over
	if h.snd.inRecovery {
		t.Fatal("recovery episode did not close after cum passed recover")
	}
	// ...then lose seq 9: sacks of 10, 11, 12 with cum stuck at 8 open
	// a genuinely new episode.
	at = 50 * units.Millisecond
	for _, seq := range []int64{10, 11, 12} {
		h.ack(8, seq, at)
		at += units.Millisecond
	}
	if h.alg.losses != 2 {
		t.Fatalf("losses = %d, want 2 (new episode after recovery)", h.alg.losses)
	}
}

func TestSenderPipeAccountsSacked(t *testing.T) {
	h := newHarness(4)
	h.start() // 0..3
	// 1 and 2 sacked (0 lost-pending): pipe shrinks, allowing new sends
	// once loss is declared and retransmitted.
	h.ack(-1, 1, 10*units.Millisecond)
	h.ack(-1, 2, 11*units.Millisecond)
	// pipe = outstanding(4) - sacked(2) = 2 < window(4): two new packets
	// (seqs 4, 5) may flow.
	var newSeqs []int64
	for _, p := range h.out.sent[4:] {
		if !p.Retransmit {
			newSeqs = append(newSeqs, p.Seq)
		}
	}
	if len(newSeqs) != 2 {
		t.Fatalf("new packets during sacking = %v, want 2", newSeqs)
	}
}

func TestSenderOffStopsNewData(t *testing.T) {
	h := newHarness(3)
	h.start()
	h.snd.SetOn(units.Time(5*units.Millisecond), false)
	sent := len(h.out.sent)
	// ACK everything; no new data may follow.
	h.ack(2, 2, 10*units.Millisecond)
	if len(h.out.sent) != sent {
		t.Fatalf("sender transmitted new data while off")
	}
	if h.snd.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after full ack", h.snd.Outstanding())
	}
}

func TestSenderTimeoutGoBackN(t *testing.T) {
	h := newHarness(4)
	h.start() // 0..3 sent, all lost (no acks ever).
	h.sched.Run(units.Time(3 * units.Second))
	if h.stats.Timeouts == 0 {
		t.Fatal("RTO never fired with zero feedback")
	}
	if h.alg.tmouts == 0 {
		t.Fatal("algorithm not notified of timeout")
	}
	// Head retransmitted at least once.
	retx0 := 0
	for _, p := range h.out.sent {
		if p.Retransmit && p.Seq == 0 {
			retx0++
		}
	}
	if retx0 == 0 {
		t.Fatal("head of window never retransmitted by RTO")
	}
}

func TestSenderRTOBackoffDoubles(t *testing.T) {
	h := newHarness(1)
	h.start()
	h.sched.Run(units.Time(16 * units.Second))
	// With exponential backoff the number of timeouts over 16s starting
	// at 1s RTO is about log2: 1+2+4+8 = 15s -> ~4 timeouts, far fewer
	// than the 16 a fixed 1s timer would give.
	if h.stats.Timeouts > 6 {
		t.Fatalf("timeouts = %d; backoff seems missing", h.stats.Timeouts)
	}
	if h.stats.Timeouts < 3 {
		t.Fatalf("timeouts = %d; RTO not firing", h.stats.Timeouts)
	}
}

func TestSenderDuplicateSackIgnored(t *testing.T) {
	h := newHarness(8)
	h.start()
	h.ack(-1, 2, 10*units.Millisecond)
	ex := h.snd.excluded
	h.ack(-1, 2, 11*units.Millisecond) // duplicate sack of seq 2
	if h.snd.excluded != ex {
		t.Fatalf("duplicate sack changed pipe accounting: %d -> %d", ex, h.snd.excluded)
	}
}

func TestSenderReconnectResetsAlgorithm(t *testing.T) {
	resets := 0
	alg := &resetCounter{fixedCC: fixedCC{w: 2}, resets: &resets}
	sched := sim.New()
	out := &captureEgress{}
	snd := NewSender(sched, 0, alg, out, &FlowStats{})
	snd.SetOn(0, true)
	snd.SetOn(units.Time(units.Second), false)
	snd.SetOn(units.Time(2*units.Second), true)
	if resets != 2 {
		t.Fatalf("Reset called %d times, want once per on-transition", resets)
	}
}

type resetCounter struct {
	fixedCC
	resets *int
}

func (r *resetCounter) Reset(units.Time) { *r.resets++ }

func TestSenderCumulativeAckCleansScoreboard(t *testing.T) {
	h := newHarness(6)
	h.start()
	h.ack(-1, 1, 10*units.Millisecond)
	h.ack(-1, 2, 11*units.Millisecond)
	h.ack(5, 5, 20*units.Millisecond) // everything delivered
	if n := h.snd.sb.marked(); n != 0 {
		t.Fatalf("scoreboard not cleaned: %d entries still marked", n)
	}
	if h.snd.excluded != 0 {
		t.Fatalf("excluded = %d after full ack", h.snd.excluded)
	}
}

// TestPacedSenderHoldsOneEntry: a paced sender with data outstanding
// has both its pace deadline and its retransmission timer armed, and
// holds exactly one scheduler entry for the two, keyed at the earlier;
// ACKs that re-arm the RTO leave it one, and the RTO re-armed by a
// timeout is one entry too.
func TestPacedSenderHoldsOneEntry(t *testing.T) {
	h := newHarness(4)
	h.alg.pace = 10 * units.Millisecond
	h.start()
	check := func(where string) {
		t.Helper()
		if h.snd.Outstanding() == 0 {
			t.Fatalf("%s: nothing outstanding", where)
		}
		if !h.snd.timers.Armed(paceDeadline) || !h.snd.timers.Armed(rtoDeadline) {
			t.Fatalf("%s: pace armed %v, RTO armed %v; want both", where,
				h.snd.timers.Armed(paceDeadline), h.snd.timers.Armed(rtoDeadline))
		}
		if n := h.sched.Len(); n != 1 {
			t.Fatalf("%s: the sender holds %d scheduler entries, want 1", where, n)
		}
	}
	check("after the first send")
	for i := int64(0); i < 3; i++ {
		h.ack(i, i, units.Duration(15+10*i)*units.Millisecond)
		check("after an ACK")
	}
	// No more ACKs: pace fires until the window is full, then the RTO.
	timeouts := h.stats.Timeouts
	h.sched.Run(units.Time(5 * units.Second))
	if h.stats.Timeouts == timeouts {
		t.Fatal("the retransmission timer never fired")
	}
	if !h.snd.timers.Armed(rtoDeadline) || h.sched.Len() != 1 {
		t.Fatalf("after a timeout: RTO armed %v, %d scheduler entries; want armed and 1",
			h.snd.timers.Armed(rtoDeadline), h.sched.Len())
	}
}
