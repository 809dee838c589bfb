package scenario

// The packet-event stream is the one way to watch a run, so it has to
// be complete and exact: every change of a gateway queue's counters or
// occupancy is an event, stated with the right kind and followed by the
// right depth. Two checks hold it to that — the stream's own books
// against the queues' Stats, and a digest of the whole stream recorded
// with the per-discipline drop and mark recorders that queue.Observer
// replaced (commit e1b2419), so the seam carries the same events, in
// the same order, with the same kinds.

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"learnability/internal/netsim"
	"learnability/internal/rng"
)

// streamCases are the TestTracingInvisible specs plus two that reach
// the remaining event sites: an sfqCoDel buffer small enough to
// overflow (victim evictions) and a marking drop-tail FIFO.
func streamCases() []struct {
	name   string
	spec   Spec
	digest string
} {
	overflow := tracedSpec(SfqCoDel, false)
	overflow.BufferBDP = 0.5
	overflow.Senders = append(twoCubic(), twoCubic()...)
	marking := tracedSpec(FiniteDropTail, true)
	marking.BufferBDP = 1
	marking.Senders = twoCubic()
	return []struct {
		name   string
		spec   Spec
		digest string
	}{
		{"droptail", tracedSpec(FiniteDropTail, false), "e2b8d142b9e52622b756ae638af305a0140178d732e9a67fec7ea8d8ffa98237"},
		{"codel-ecn", tracedSpec(CoDelAQM, true), "5cdde9472de0f6658bb4590eae5d9eb7321a6efe6df466c62da68918e8bd99f6"},
		{"sfqcodel", tracedSpec(SfqCoDel, false), "605d77bd4f0d08990661aa98100ba9b626ed98c72e2af5c04e1b16170899704a"},
		{"sfqcodel-overflow", overflow, "6ac5a33054c55cb2633da4ff35432e68004e7b5e5a8bb9d23d808b960d405d4b"},
		{"marking-droptail", marking, "1781951538e780267193e4a04a4c70d20df4063bbe03e1d91190fabeb0a4f16a"},
	}
}

func TestTraceStreamBalances(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Seed = rng.New(42)
			h := sha256.New()
			var counts [][netsim.TraceDeliver + 1]int64
			var last []netsim.PacketEvent
			spec.Trace = func(ev netsim.PacketEvent) {
				fmt.Fprintf(h, "%+v\n", ev)
				if ev.Link < 0 {
					return
				}
				for len(counts) <= ev.Link {
					counts = append(counts, [netsim.TraceDeliver + 1]int64{})
					last = append(last, netsim.PacketEvent{})
				}
				counts[ev.Link][ev.Kind]++
				last[ev.Link] = ev
			}
			nw, queues := mustBuild(spec)
			Finish(spec, nw)

			for i, q := range queues {
				if i >= len(counts) {
					t.Fatalf("link %d emitted no events", i)
				}
				st, c := q.Stats(), counts[i]
				got := [...]int64{c[netsim.TraceEnqueue], c[netsim.TraceDequeue], c[netsim.TraceDropTail], c[netsim.TraceDropAQM], c[netsim.TraceMarkCE]}
				want := [...]int64{st.Enqueued, st.Dequeued, st.DropsTail, st.DropsAQM, st.MarksECN}
				if got != want {
					t.Errorf("link %d: events by kind (enqueue, dequeue, drop_tail, drop_aqm, mark_ce) = %v, queue stats = %v", i, got, want)
				}
				if last[i].QueueLen != q.Len() || last[i].QueueBytes != q.Bytes() {
					t.Errorf("link %d: last event left depth %d pkts / %d B, queue holds %d / %d",
						i, last[i].QueueLen, last[i].QueueBytes, q.Len(), q.Bytes())
				}
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.digest {
				t.Errorf("stream digest %s, recorded %s", got, tc.digest)
			}
		})
	}
}
