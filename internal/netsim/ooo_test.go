package netsim

import (
	"testing"

	"learnability/internal/rng"
)

// oooReceiver replays the receiver's cumulative-ACK logic over a
// scoreboard used as its reorder buffer, the way Receiver.Deliver uses
// its ring: an arrival above the cumulative point sets a flag, presence
// is any flag set, and the cumulative point advances the board past what
// it delivers. deliver takes one arrival and returns the new cumulative
// point; the ring and the map oracle must trace identically through it.
type oooReceiver struct {
	cum int64
	buf scoreboard
}

func (r *oooReceiver) deliver(seq int64) int64 {
	switch {
	case seq == r.cum+1:
		r.cum++
		for r.buf.get(r.cum+1) != 0 {
			r.cum++
		}
		r.buf.advance(r.cum + 1)
	case seq > r.cum:
		r.buf.or(seq, sbSacked)
	}
	return r.cum
}

// reorderTrace builds an arrival sequence for packets 0..n-1 with
// bounded random displacement plus duplicates: the kind of stream a
// congested path with retransmissions produces.
func reorderTrace(r *rng.Stream, n, depth int) []int64 {
	trace := make([]int64, n)
	for i := range trace {
		trace[i] = int64(i)
	}
	for i := range trace {
		j := i + r.Intn(depth)
		if j >= len(trace) {
			j = len(trace) - 1
		}
		trace[i], trace[j] = trace[j], trace[i]
	}
	// Sprinkle duplicates of already-sent sequences.
	for k := 0; k < n/10; k++ {
		i := 1 + r.Intn(n-1)
		trace = append(trace, trace[r.Intn(i)])
	}
	return trace
}

// TestOooRingMatchesMap drives the ring and the map scoreboard, as a
// receiver's reorder buffer, through the same random reorder traces and
// requires identical cumulative points, identical presence on random
// probes, and identical sizes at every step.
func TestOooRingMatchesMap(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 50; trial++ {
		n := 50 + r.Intn(400)
		depth := 1 + r.Intn(100)
		trace := reorderTrace(r, n, depth)

		ring := &oooReceiver{cum: -1, buf: newRingScoreboard()}
		ref := &oooReceiver{cum: -1, buf: newMapScoreboard(0)}
		for step, seq := range trace {
			rc, mc := ring.deliver(seq), ref.deliver(seq)
			if rc != mc {
				t.Fatalf("trial %d step %d (seq %d): ring cum %d, map cum %d", trial, step, seq, rc, mc)
			}
			if rs, ms := ring.buf.marked(), ref.buf.marked(); rs != ms {
				t.Fatalf("trial %d step %d: ring size %d, map size %d", trial, step, rs, ms)
			}
			probe := int64(r.Intn(n))
			if rh, mh := ring.buf.get(probe) != 0, ref.buf.get(probe) != 0; rh != mh {
				t.Fatalf("trial %d step %d: seq %d present on ring %v, on map %v", trial, step, probe, rh, mh)
			}
		}
		// Every in-order-complete trace must end fully delivered.
		if ring.cum != int64(n-1) {
			t.Fatalf("trial %d: final cum %d, want %d", trial, ring.cum, n-1)
		}
		if ring.buf.marked() != 0 {
			t.Fatalf("trial %d: %d stale entries left in ring", trial, ring.buf.marked())
		}
	}
}

// TestOooRingGrowth forces deep reordering so the ring must double
// several times, checks presence survives each growth, that advancing
// past the whole stored span empties it, and that a reset to sequence
// zero (a recycled world's receiver) keeps the capacity it grew to.
func TestOooRingGrowth(t *testing.T) {
	ring := newRingScoreboard()
	ref := newMapScoreboard(0)
	// Hold back seq 0 so the base never advances while arrivals land far
	// beyond the initial 64-entry capacity.
	r := rng.New(5)
	var added []int64
	for i := 0; i < 200; i++ {
		seq := int64(1 + r.Intn(4096))
		ring.or(seq, sbSacked)
		ref.or(seq, sbSacked)
		added = append(added, seq)
	}
	for _, seq := range added {
		if ring.get(seq) == 0 {
			t.Fatalf("ring lost seq %d across growth", seq)
		}
	}
	if ring.marked() != ref.marked() {
		t.Fatalf("ring size %d, map size %d", ring.marked(), ref.marked())
	}
	grown := len(ring.flags)
	if grown <= ringScoreboardMinCap {
		t.Fatalf("ring holds %d entries after arrivals 4096 ahead; it never grew", grown)
	}
	// Advancing past everything, beyond the stored span, empties the
	// ring.
	ring.advance(5000)
	ref.advance(5000)
	if ring.marked() != 0 || ref.marked() != 0 {
		t.Fatalf("advance left entries: ring %d, map %d", ring.marked(), ref.marked())
	}
	if ring.get(3000) != 0 || ring.get(5000) != 0 {
		t.Fatal("a sequence is present after advance")
	}
	// A reset rewinds to sequence zero and keeps the grown capacity.
	ring.or(5001, sbSacked)
	ring.reset(0)
	if len(ring.flags) != grown || ring.base != 0 || ring.marked() != 0 {
		t.Fatalf("reset(0): %d entries from %d, base %d, %d marked; want the capacity kept, base 0, none marked",
			len(ring.flags), grown, ring.base, ring.marked())
	}
	ring.or(7, sbSacked)
	if ring.get(7) == 0 || len(ring.flags) != grown {
		t.Fatal("the reset ring does not take an arrival in place")
	}
}
