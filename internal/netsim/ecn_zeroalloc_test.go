package netsim

import (
	"testing"

	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/units"
)

// TestECNMarkZeroAlloc pins the per-packet forwarding path through a
// marking gateway at exactly zero allocations per event, for both
// marking disciplines: CE-marking must stay as cheap as dropping. The
// fixture is tracedLink's refeed loop over a slow link, so the queue
// stands far above the CoDel target and every enqueue sits over the
// DCTCP threshold — both control laws mark continuously while the
// allocation counter watches.
func TestECNMarkZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		mk   func() queue.Discipline
	}{
		{"markingdroptail", func() queue.Discipline {
			q := queue.NewDropTail(64 * packet.MTU)
			q.SetLimits(64*packet.MTU, 2*packet.MTU)
			return q
		}},
		{"codel", func() queue.Discipline {
			q := queue.NewCoDel(64 * packet.MTU)
			q.SetECNMarking(true)
			return q
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := New()
			sched, pool := nw.Sched, nw.Pool
			q := tc.mk()
			// 1 Mbps: each MTU serializes in ~12 ms, so 16 circulating
			// packets hold the sojourn far above the 5 ms CoDel target.
			l := nw.NewLink(units.Mbps, 20*units.Microsecond, q)
			l.SetRoute([]Deliverer{refeed{l}})
			for i := 0; i < 16; i++ {
				p := pool.Data(0, int64(i), sched.Now())
				p.ECT = true
				l.Deliver(sched.Now(), p)
			}
			for i := 0; i < 256; i++ {
				if !sched.Step() {
					t.Fatal("link went idle")
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				for i := 0; i < 64; i++ {
					if !sched.Step() {
						t.Fatal("link went idle")
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("marking path allocates %.1f times per 64 events, want 0", allocs)
			}
			st := q.Stats()
			if st.MarksECN == 0 {
				t.Fatal("fixture never marked; zero-alloc check is vacuous")
			}
			if st.DropsAQM != 0 {
				t.Fatalf("marking gateway AQM-dropped %d ECT packets", st.DropsAQM)
			}
		})
	}
}
