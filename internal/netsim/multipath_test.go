package netsim

// Multipath forwarding tests: the per-packet path selector (spray
// round-robin, adaptive least-queue) must stay allocation-free
// (TestMultipathForwardZeroAlloc, the multipath counterpart of
// TestLinkTraceDisabledZeroAllocs) and deterministic.

import (
	"testing"

	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// countSink terminates packets, counting and recycling them.
type countSink struct {
	pool *packet.Pool
	n    int
}

// Deliver implements Deliverer.
func (s *countSink) Deliver(_ units.Time, p *packet.Packet) {
	s.n++
	s.pool.Put(p)
}

// dropTail64 is the diamond's default gateway queue.
func dropTail64() queue.Discipline { return queue.NewDropTail(64 * packet.MTU) }

// fanoutDiamond wires the smallest topology that exercises forward():
// l0 fans flow 0 out to l1 and l2 under the given selector, and both
// downstream links recirculate packets back into l0, so a handful of
// pooled packets keeps the multipath hot path busy forever.
func fanoutDiamond(sel PathSelector, mkq func() queue.Discipline) (*sim.Scheduler, *packet.Pool, *Link) {
	nw := New()
	sched, pool := nw.Sched, nw.Pool
	l0 := nw.NewLink(units.Gbps, 20*units.Microsecond, mkq())
	l1 := nw.NewLink(units.Gbps, 20*units.Microsecond, mkq())
	l2 := nw.NewLink(units.Gbps, 20*units.Microsecond, mkq())
	l1.SetRoute([]Deliverer{refeed{l0}})
	l2.SetRoute([]Deliverer{refeed{l0}})
	l0.SetMultiRoute(
		[]Deliverer{nil},
		[]NextHops{{Cands: []Deliverer{l1, l2}}},
		sel,
	)
	for i := 0; i < 16; i++ {
		l0.Deliver(sched.Now(), pool.Data(0, int64(i), sched.Now()))
	}
	return sched, pool, l0
}

// TestSpraySplitsEvenly checks the spray selector round-robins a flow's
// candidates: an even packet count splits exactly in half.
func TestSpraySplitsEvenly(t *testing.T) {
	nw := New()
	sched, pool := nw.Sched, nw.Pool
	l0 := nw.NewLink(units.Gbps, 20*units.Microsecond, queue.NewDropTail(64*packet.MTU))
	l1 := nw.NewLink(units.Gbps, 20*units.Microsecond, queue.NewDropTail(64*packet.MTU))
	l2 := nw.NewLink(units.Gbps, 20*units.Microsecond, queue.NewDropTail(64*packet.MTU))
	sink := &countSink{pool: pool}
	l1.SetRoute([]Deliverer{sink})
	l2.SetRoute([]Deliverer{sink})
	l0.SetMultiRoute(
		[]Deliverer{nil},
		[]NextHops{{Cands: []Deliverer{l1, l2}}},
		SelectSpray,
	)
	const n = 10
	for i := 0; i < n; i++ {
		l0.Deliver(sched.Now(), pool.Data(0, int64(i), sched.Now()))
	}
	for sched.Step() {
	}
	in1, _ := l1.Counts()
	in2, _ := l2.Counts()
	if in1 != n/2 || in2 != n/2 {
		t.Fatalf("spray split %d/%d, want %d/%d", in1, in2, n/2, n/2)
	}
	if sink.n != n {
		t.Fatalf("sink saw %d packets, want %d", sink.n, n)
	}
}

// TestAdaptiveAvoidsBacklog checks the adaptive selector steers every
// packet away from a candidate with a standing queue.
func TestAdaptiveAvoidsBacklog(t *testing.T) {
	nw := New()
	sched, pool := nw.Sched, nw.Pool
	l0 := nw.NewLink(units.Gbps, 20*units.Microsecond, queue.NewDropTail(64*packet.MTU))
	l1 := nw.NewLink(units.Gbps, 20*units.Microsecond, queue.NewDropTail(64*packet.MTU))
	// l2 is three orders of magnitude slower, so its prefilled queue
	// stays backlogged for the whole test.
	l2 := nw.NewLink(units.Mbps, 20*units.Microsecond, queue.NewDropTail(64*packet.MTU))
	sink := &countSink{pool: pool}
	l1.SetRoute([]Deliverer{sink})
	l2.SetRoute([]Deliverer{sink})
	l0.SetMultiRoute(
		[]Deliverer{nil},
		[]NextHops{{Cands: []Deliverer{l1, l2}}},
		SelectAdaptive,
	)
	const preload, n = 6, 4
	for i := 0; i < preload; i++ {
		l2.Deliver(sched.Now(), pool.Data(0, int64(i), sched.Now()))
	}
	for i := 0; i < n; i++ {
		l0.Deliver(sched.Now(), pool.Data(0, int64(preload+i), sched.Now()))
	}
	for sched.Step() {
	}
	in1, _ := l1.Counts()
	in2, _ := l2.Counts()
	if in1 != n {
		t.Fatalf("adaptive sent %d packets to the idle candidate, want all %d (backlogged got %d)", in1, n, in2-preload)
	}
	if sink.n != preload+n {
		t.Fatalf("sink saw %d packets, want %d", sink.n, preload+n)
	}
}

// TestMultipathForwardZeroAlloc pins the multipath forwarding path at
// exactly zero allocations per event for both per-packet selectors,
// and for the adaptive selector reading sfqCoDel occupancy, the pair
// whose per-candidate Len used to walk 1 024 bins.
func TestMultipathForwardZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		sel  PathSelector
		mkq  func() queue.Discipline
	}{
		{"spray", SelectSpray, dropTail64},
		{"adaptive", SelectAdaptive, dropTail64},
		{"adaptive-sfqcodel", SelectAdaptive, func() queue.Discipline {
			return queue.NewSFQCoDel(queue.SFQCoDelBins, 64*packet.MTU)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, _, _ := fanoutDiamond(tc.sel, tc.mkq)
			// Warm up past any lazy growth inside the scheduler.
			for i := 0; i < 256; i++ {
				if !sched.Step() {
					t.Fatal("diamond went idle")
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				for i := 0; i < 64; i++ {
					if !sched.Step() {
						t.Fatal("diamond went idle")
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("%s multipath forwarding allocates %.1f times per 64 events, want 0", tc.name, allocs)
			}
		})
	}
}
