package netsim

import (
	"testing"

	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// tracedLink builds the saturated-link harness of BenchmarkLinkSaturation
// with a tiny queue, so enqueue, dequeue, and tail-drop events all fire.
func tracedLink(capPkts int) (*sim.Scheduler, *Link, *packet.Pool) {
	sched := sim.New()
	pool := &packet.Pool{}
	q := queue.NewDropTail(capPkts * packet.MTU)
	l := NewLink(sched, units.Gbps, 20*units.Microsecond, q)
	l.SetPool(pool)
	l.SetRoute([]Deliverer{refeed{l}})
	return sched, l, pool
}

func TestLinkTraceEvents(t *testing.T) {
	sched, l, pool := tracedLink(4)
	counts := map[PacketEventKind]int{}
	l.SetTrace(3, func(ev PacketEvent) {
		if ev.Link != 3 {
			t.Fatalf("event link = %d, want 3", ev.Link)
		}
		counts[ev.Kind]++
	})
	// 8 arrivals into a 4-packet queue: the first fills the queue (one
	// immediately dequeues into the serializer), the rest tail-drop.
	for i := 0; i < 8; i++ {
		l.Deliver(sched.Now(), pool.Data(0, int64(i), sched.Now()))
	}
	if counts[TraceEnqueue] == 0 {
		t.Fatal("no enqueue events")
	}
	if counts[TraceDropTail] == 0 {
		t.Fatal("no tail-drop events from a saturated queue")
	}
	if counts[TraceDropAQM] != 0 {
		t.Fatalf("%d AQM drops from a droptail queue", counts[TraceDropAQM])
	}
	for i := 0; i < 50; i++ {
		if !sched.Step() {
			break
		}
	}
	if counts[TraceDequeue] == 0 {
		t.Fatal("no dequeue events after stepping the link")
	}
	// Clearing the tracer must stop emission entirely and leave the
	// queue with no observer (one left behind would call the link's
	// nil tracer at the next drop): overflow the queue again, first
	// after SetTrace(nil), then after a Reinit that keeps the queue.
	total := func() int {
		return counts[TraceEnqueue] + counts[TraceDequeue] + counts[TraceDropTail]
	}
	overflow := func() {
		for i := 0; i < 8; i++ {
			l.Deliver(sched.Now(), pool.Data(0, int64(100+i), sched.Now()))
		}
		sched.Step()
	}
	before := total()
	l.SetTrace(3, nil)
	overflow()
	if total() != before {
		t.Fatal("cleared tracer still received events")
	}
	l.SetTrace(3, func(ev PacketEvent) { counts[ev.Kind]++ })
	l.Reinit(units.Gbps, 20*units.Microsecond, l.Queue())
	overflow()
	if total() != before {
		t.Fatal("tracer survived Reinit")
	}
}

// TestLinkTraceDisabledZeroAllocs pins the telemetry plane's first
// invariant at the packet hook: an untraced link's delivery path
// allocates nothing, so disabled tracing costs one nil check.
func TestLinkTraceDisabledZeroAllocs(t *testing.T) {
	sched, l, pool := tracedLink(64)
	for i := 0; i < 16; i++ {
		l.Deliver(sched.Now(), pool.Data(0, int64(i), sched.Now()))
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if !sched.Step() {
			t.Fatal("link went idle")
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced link path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkLinkTraceDisabled is BenchmarkLinkSaturation with the trace
// plumbing compiled in but no tracer installed — scripts/bench.sh gates
// its allocs/op at zero and its ns/op within tolerance of the baseline,
// pinning the disabled path's zero cost release over release.
func BenchmarkLinkTraceDisabled(b *testing.B) {
	sched, l, pool := tracedLink(64)
	for i := 0; i < 16; i++ {
		l.Deliver(sched.Now(), pool.Data(0, int64(i), sched.Now()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sched.Step() {
			b.Fatal("link went idle")
		}
	}
}

// BenchmarkLinkTraceEnabled measures the same path with a minimal
// counting tracer installed, so the cost of observation itself (event
// construction plus one indirect call) stays visible.
func BenchmarkLinkTraceEnabled(b *testing.B) {
	sched, l, pool := tracedLink(64)
	var events int64
	l.SetTrace(0, func(ev PacketEvent) { events++ })
	for i := 0; i < 16; i++ {
		l.Deliver(sched.Now(), pool.Data(0, int64(i), sched.Now()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sched.Step() {
			b.Fatal("link went idle")
		}
	}
	if events == 0 {
		b.Fatal("tracer saw no events")
	}
}
