package queue

import (
	"fmt"
	"strings"
	"testing"

	"learnability/internal/packet"
	"learnability/internal/units"
)

// disciplines builds every discipline the package ships, configured
// the way a scenario configures it.
var disciplines = []struct {
	name  string
	build func() Discipline
}{
	{"DropTail", func() Discipline { return NewDropTail(30 * packet.MTU) }},
	{"MarkingDropTail", func() Discipline { return markingDropTail(30*packet.MTU, 10*packet.MTU) }},
	{"CoDel", func() Discipline { return NewCoDel(200 * packet.MTU) }},
	{"CoDel/ECN", func() Discipline {
		q := NewCoDel(200 * packet.MTU)
		q.SetECNMarking(true)
		return q
	}},
	{"SFQCoDel", func() Discipline { return NewSFQCoDel(8, 40*packet.MTU) }},
	{"SFQCoDel/ECN", func() Discipline {
		q := NewSFQCoDel(SFQCoDelBins, 200*packet.MTU)
		q.SetECNMarking(true)
		return q
	}},
	{"Infinite", func() Discipline { return NewDropTail(Unbounded) }},
}

// TestResetMatchesFresh dirties a discipline — packets queued, CoDel
// mid-drop-schedule, sfqCoDel bins materialised and mid-round-robin,
// counters advanced, an observer attached — resets it, and drives it
// beside a new one: they must agree after every operation, and the
// observer of the dirty run must never fire again. Throughout, every
// packet a discipline accepts must be on its pool's free list when
// Enqueue returns (the discipline holds a copy), and Reset, finding
// only values queued, must hand the pool nothing.
func TestResetMatchesFresh(t *testing.T) {
	for _, tc := range disciplines {
		t.Run(tc.name, func(t *testing.T) {
			trace := lockstepTrace{steps: 6000, flows: 9, sizes: []int{packet.MTU, packet.MTU, 600}, ectShare: 0.6, maxGap: 3 * units.Millisecond}

			used, twin := pooled(tc.build()), pooled(tc.build())
			used.record()
			twin.record()
			trace.seed = 1
			trace.run(t, used, twin)
			q := used.q.(Discipline)
			if q.Len() == 0 || q.Stats().Enqueued == 0 {
				t.Fatalf("dirty run left nothing behind (Len %d, %+v)", q.Len(), q.Stats())
			}

			free := used.pool.Free()
			q.Reset()
			if q.Len() != 0 || q.Bytes() != 0 || q.Stats() != (Stats{}) {
				t.Fatalf("after Reset: Len %d Bytes %d Stats %+v", q.Len(), q.Bytes(), q.Stats())
			}
			if used.pool.Free() != free {
				t.Fatalf("Reset moved the pool's free list from %d packets to %d", free, used.pool.Free())
			}

			// First with no observer attached, so one left over from
			// the dirty run would be the only one to fire; then with.
			stale := len(used.log)
			reset, fresh := &side{q: q, pool: used.pool}, pooled(tc.build())
			trace.seed = 2
			trace.run(t, reset, fresh)
			if len(used.log) != stale {
				t.Fatalf("the observer of the run before Reset fired %d times after it", len(used.log)-stale)
			}
			reset.record()
			fresh.record()
			trace.seed = 3
			trace.run(t, reset, fresh)
		})
	}
}

// TestSteadyStateZeroAlloc: once a finite discipline's rings have
// grown to its working set, an enqueue and a dequeue allocate
// nothing — AQM drops, marks and overflow evictions included.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range disciplines {
		if tc.name == "Infinite" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			q, pl := tc.build(), &packet.Pool{}
			q.(PoolAware).SetPool(pl)
			var now units.Time
			var seq int64
			// Arrivals outpace the drain two to one, so the queue
			// stands at capacity (drop-tail rejects, sfqCoDel evicts)
			// with sojourn times far above CoDel's target.
			step := func() {
				now = now.Add(units.Millisecond)
				for i := 0; i < 2; i++ {
					p := pl.Data(int(seq%5), seq, now)
					p.ECT = seq%2 == 0
					seq++
					if !q.Enqueue(now, p) {
						pl.Put(p)
					}
				}
				if p := q.Dequeue(now); p != nil {
					pl.Put(p)
				}
			}
			for i := 0; i < 5000; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
				t.Fatalf("%v allocations per steady-state step, want 0", allocs)
			}
			if st := q.Stats(); st.Drops()+st.MarksECN == 0 {
				t.Fatalf("the steady state never dropped or marked: %+v", st)
			}
		})
	}
}

// TestNewSFQCoDelAllocations bounds construction: the struct and the
// slot table, whatever the bin count. (The eager version made 1 024
// CoDel queues per gateway — 98 k objects for a 96-link fabric.)
func TestNewSFQCoDelAllocations(t *testing.T) {
	var q *SFQCoDel
	allocs := testing.AllocsPerRun(100, func() { q = NewSFQCoDel(SFQCoDelBins, 100*packet.MTU) })
	if allocs > 2 {
		t.Fatalf("NewSFQCoDel(%d, …) makes %v allocations, want at most 2", SFQCoDelBins, allocs)
	}
	_ = q
}

// TestPassMatchesEnqueueDequeue: Pass on an empty queue is Enqueue
// followed by Dequeue. Two copies of each discipline run the same trace,
// one taking every arrival that finds it empty through Pass and the
// other through Enqueue and Dequeue; they must agree after every step on
// what they accept and serve, Len, Bytes, Stats and internal state
// (ring contents aside), and on every observer event with the depth it
// reads, and the pass-through copy must leave its pool untouched. The traces reach arrivals larger than
// the buffer and, for sfqCoDel, an empty queue whose service list still
// holds bins that eviction emptied.
func TestPassMatchesEnqueueDequeue(t *testing.T) {
	oversize := []struct {
		name  string
		build func() Discipline
	}{
		{"DropTail/oversize", func() Discipline { return NewDropTail(2 * packet.MTU) }},
		{"CoDel/oversize", func() Discipline { return NewCoDel(2 * packet.MTU) }},
		// Two packets fill the buffer, so evictions empty bins that stay
		// on the service list with deficits of their own.
		{"SFQCoDel/oversize", func() Discipline { return NewSFQCoDel(4, 2*packet.MTU) }},
	}
	cases := append(disciplines[:len(disciplines):len(disciplines)], oversize...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sizes := []int{packet.MTU, packet.MTU, 600, packet.ACKSize}
			if strings.HasSuffix(tc.name, "oversize") {
				sizes = []int{packet.MTU, 600, packet.ACKSize, 3 * packet.MTU}
			}
			passes, rejected, listed := 0, 0, 0
			for seed := uint64(1); seed <= 3; seed++ {
				pass, ref := pooled(tc.build()), pooled(tc.build())
				pass.recordDepth()
				ref.recordDepth()
				tr := lockstepTrace{seed: seed, steps: 6000, flows: 9, sizes: sizes, ectShare: 0.6, maxGap: 3 * units.Millisecond, pass: true}
				tr.each = func(step int) {
					if a, b := state(pass.q.(Discipline)), state(ref.q.(Discipline)); a != b {
						t.Fatalf("step %d: internal state\n%s\nreference\n%s", step, a, b)
					}
					if pass.q.Len() == 0 {
						if sfq, ok := pass.q.(*SFQCoDel); ok && sfq.head >= 0 {
							listed++
						}
					}
				}
				tr.run(t, pass, ref)
				passes += pass.passes
				rejected += int(pass.q.Stats().DropsTail)
			}
			if passes < 100 {
				t.Fatalf("vacuous: only %d arrivals passed through", passes)
			}
			if strings.HasSuffix(tc.name, "oversize") && rejected == 0 {
				t.Fatal("vacuous: no arrival was larger than the buffer")
			}
			if tc.name == "SFQCoDel/oversize" && listed == 0 {
				t.Fatal("vacuous: the queue never emptied with bins left on the service list")
			}
		})
	}
}

// state renders a discipline's internal state but for the packets its
// rings hold, which a pass-through never writes.
func state(q Discipline) string {
	ring := func(f *fifo) string { return fmt.Sprintf("ring(head %d n %d bytes %d)", f.head, f.n, f.bytes) }
	law := func(c *codel) string {
		return fmt.Sprintf("%s %+v above %d next %d count %d dropping %v",
			ring(&c.q), c.stats, c.firstAboveTime, c.dropNext, c.count, c.dropping)
	}
	switch q := q.(type) {
	case *DropTail:
		return fmt.Sprintf("%s %+v", ring(&q.q), q.stats)
	case *CoDel:
		return law(&q.codel)
	case *SFQCoDel:
		st := fmt.Sprintf("list %d..%d bytes %d pkts %d %+v", q.head, q.tail, q.bytes, q.pkts, q.stats)
		for i := range q.live {
			b := &q.live[i]
			st += fmt.Sprintf("\n bin %d next %d listed %v deficit %d %s", b.index, b.next, b.inList, b.deficit, law(&b.codel))
		}
		return st
	}
	panic(fmt.Sprintf("no state for %T", q))
}
