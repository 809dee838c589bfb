package netsim

import (
	"testing"

	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// refeed recirculates every packet leaving the link back into it, so a
// small set of pooled packets keeps the link saturated forever.
type refeed struct{ l *Link }

func (r refeed) Deliver(now units.Time, p *packet.Packet) { r.l.Deliver(now, p) }

// tracedLink builds a saturated-link harness: a 1 Gbps, 20 µs link that
// feeds itself, over a drop-tail queue of capPkts packets — small
// enough, at 4, that enqueue, dequeue and tail-drop events all fire.
func tracedLink(capPkts int) (*sim.Scheduler, *Link, *packet.Pool) {
	nw := New()
	q := queue.NewDropTail(capPkts * packet.MTU)
	l := nw.NewLink(units.Gbps, 20*units.Microsecond, q)
	l.SetRoute([]Deliverer{refeed{l}})
	return nw.Sched, l, nw.Pool
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

// flowPath builds one flow's whole round trip — sender, queue, link,
// receiver, delayed ACK, sender — under a fixed window, so the flow
// stays in equilibrium for as long as it is stepped.
func flowPath() *sim.Scheduler {
	nw := New()
	l := nw.NewLink(100*units.Mbps, 5*units.Millisecond, queue.NewDropTail(256*packet.MTU))
	st := &FlowStats{Flow: 0, PropDelay: 5 * units.Millisecond, MinRTT: 10 * units.Millisecond}
	rcv := nw.NewReceiver(0, 5*units.Millisecond, st)
	snd := NewSender(nw.Sched, 0, &fixedCC{w: 32}, l, st)
	rcv.SetSender(snd)
	snd.SetPool(nw.Pool)
	l.SetRoute([]Deliverer{rcv})
	snd.SetOn(0, true)
	return nw.Sched
}

// TestLinkTraceDisabledZeroAllocs pins the per-event hot paths at
// exactly zero allocations. A saturated single-path link — queue,
// serializer and propagation pipeline all busy — allocates nothing
// untraced, which is the telemetry plane's first invariant at the
// packet hook (disabled tracing costs one nil check), and nothing with
// a minimal counting tracer installed (observing is building an event
// on the stack and one indirect call). Neither does a whole flow path
// in equilibrium.
func TestLinkTraceDisabledZeroAllocs(t *testing.T) {
	saturated := func(trace func(PacketEvent)) *sim.Scheduler {
		sched, l, pool := tracedLink(64)
		l.SetTrace(0, trace)
		for i := 0; i < 16; i++ {
			l.Deliver(sched.Now(), pool.Data(0, int64(i), sched.Now()))
		}
		return sched
	}
	var events int64
	for _, tc := range []struct {
		name  string
		sched *sim.Scheduler
	}{
		{"untraced link", saturated(nil)},
		{"traced link", saturated(func(PacketEvent) { events++ })},
		{"flow path", flowPath()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(2000, func() {
				if !tc.sched.Step() {
					t.Fatal("simulation drained")
				}
			})
			if allocs != 0 {
				t.Fatalf("%.2f allocations per event, want 0", allocs)
			}
		})
	}
	if events == 0 {
		t.Fatal("tracer saw no events")
	}
}
