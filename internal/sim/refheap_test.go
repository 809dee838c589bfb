package sim

import (
	"testing"

	"learnability/internal/rng"
	"learnability/internal/units"
)

// refScheduler is a naive reference implementation: a plain sorted-slice
// event list with lazy ordering, used to cross-check the indexed 4-ary
// heap on randomized schedule/cancel/reschedule workloads.
type refScheduler struct {
	now    units.Time
	seq    uint64
	events []refEvent
}

type refEvent struct {
	at   units.Time
	seq  uint64
	id   int
	dead bool
}

func (r *refScheduler) schedule(at units.Time, id int) {
	r.events = append(r.events, refEvent{at: at, seq: r.seq, id: id})
	r.seq++
}

func (r *refScheduler) cancel(id int) bool {
	for i := range r.events {
		if r.events[i].id == id && !r.events[i].dead {
			r.events[i].dead = true
			return true
		}
	}
	return false
}

func (r *refScheduler) len() int {
	n := 0
	for i := range r.events {
		if !r.events[i].dead {
			n++
		}
	}
	return n
}

// peek returns the live event with the smallest (at, seq).
func (r *refScheduler) peek() (refEvent, bool) {
	best := r.earliest()
	if best < 0 {
		return refEvent{}, false
	}
	return r.events[best], true
}

// earliest indexes the live event with the smallest (at, seq), or -1.
func (r *refScheduler) earliest() int {
	best := -1
	for i := range r.events {
		if r.events[i].dead {
			continue
		}
		if best < 0 || r.events[i].at < r.events[best].at ||
			(r.events[i].at == r.events[best].at && r.events[i].seq < r.events[best].seq) {
			best = i
		}
	}
	return best
}

// pop removes and returns the live event with the smallest (at, seq).
func (r *refScheduler) pop() (refEvent, bool) {
	best := r.earliest()
	if best < 0 {
		return refEvent{}, false
	}
	ev := r.events[best]
	r.events = append(r.events[:best], r.events[best+1:]...)
	r.now = ev.at
	return ev, true
}

// TestHeapMatchesReference drives the real scheduler and the naive
// reference through an identical randomized workload of schedules,
// cancellations, and reschedules, and asserts they fire the same events
// in the same order and always agree on Len.
func TestHeapMatchesReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rng.New(uint64(1000 + trial))
		s := New()
		ref := &refScheduler{}

		var fired []int
		timers := map[int]Timer{}
		nextID := 0

		schedule := func() {
			d := units.Duration(r.Intn(1000)) * units.Microsecond
			id := nextID
			nextID++
			at := s.Now().Add(d)
			timers[id] = s.After(d, func() { fired = append(fired, id) })
			ref.schedule(at, id)
		}

		cancelRandom := func() {
			if len(timers) == 0 {
				return
			}
			// Pick the live timer with the smallest id (deterministic).
			best := -1
			for id := range timers {
				if best < 0 || id < best {
					best = id
				}
			}
			got := timers[best].Stop()
			want := ref.cancel(best)
			if got != want {
				t.Fatalf("trial %d: Stop(%d) = %v, reference = %v", trial, best, got, want)
			}
			delete(timers, best)
		}

		// Seed with a burst, then interleave operations with stepping.
		for i := 0; i < 30; i++ {
			schedule()
		}
		for op := 0; op < 400; op++ {
			switch r.Intn(4) {
			case 0, 1:
				schedule()
			case 2:
				cancelRandom()
			case 3:
				// Step both schedulers one event.
				refEv, refOK := ref.pop()
				nFired := len(fired)
				simOK := s.Step()
				if simOK != refOK {
					t.Fatalf("trial %d op %d: Step = %v, reference = %v", trial, op, simOK, refOK)
				}
				if !simOK {
					continue
				}
				if len(fired) != nFired+1 || fired[len(fired)-1] != refEv.id {
					t.Fatalf("trial %d op %d: fired %d, reference fired %d",
						trial, op, fired[len(fired)-1], refEv.id)
				}
				if s.Now() != refEv.at {
					t.Fatalf("trial %d op %d: now %v, reference %v", trial, op, s.Now(), refEv.at)
				}
				delete(timers, refEv.id)
			}
			if s.Len() != ref.len() {
				t.Fatalf("trial %d op %d: Len = %d, reference = %d", trial, op, s.Len(), ref.len())
			}
		}

		// Drain both completely and compare the tail.
		for {
			refEv, refOK := ref.pop()
			nFired := len(fired)
			simOK := s.Step()
			if simOK != refOK {
				t.Fatalf("trial %d drain: Step = %v, reference = %v", trial, simOK, refOK)
			}
			if !simOK {
				break
			}
			if fired[nFired] != refEv.id {
				t.Fatalf("trial %d drain: fired %d, reference %d", trial, fired[nFired], refEv.id)
			}
		}
		if s.Len() != 0 {
			t.Fatalf("trial %d: %d events left after drain", trial, s.Len())
		}
	}
}

// TestFireInPlaceMatchesReference is the vacant root's contract as a
// property. Every handler first pops the naive reference (so the
// reference is where a pop-then-run scheduler would be), then, at random
// and on a coarse grid so that equal times are the norm, cancels another
// live timer beside the vacant root, schedules 0, 1 or 3 events (zero
// delay included), cancels the one it created first (the one that took
// the root), schedules again, and halts the run — reading Len, HighWater,
// its own handle and every live handle's When after each step. Even
// trials drive with Step and interleave the same operations from outside
// a handler; odd trials drive with Run to random deadlines and through
// halts. Each trial ends with a halt from a handler that also scheduled,
// a Reset, and a second run on the recycled scheduler.
func TestFireInPlaceMatchesReference(t *testing.T) {
	const grid = 100 * units.Microsecond
	var vacantStops, rootStops, idleHandlers, halts int
	for trial := 0; trial < 40; trial++ {
		r := rng.New(uint64(3000 + trial))
		s := New()
		ref := &refScheduler{}
		timers := map[int]Timer{}     // live handles
		refAt := map[int]units.Time{} // their firing times
		nextID, fired, hw := 0, 0, 0  // hw: the reference's peak of Len
		quiet, mayHalt, halted := false, false, false

		check := func(where string) {
			t.Helper()
			if s.Len() != ref.len() || s.HighWater() != hw {
				t.Fatalf("trial %d %s: Len %d HighWater %d, reference %d and %d",
					trial, where, s.Len(), s.HighWater(), ref.len(), hw)
			}
			for id, tm := range timers {
				if !tm.Pending() || tm.When() != refAt[id] {
					t.Fatalf("trial %d %s: live timer %d pending=%v When=%v, reference %v",
						trial, where, id, tm.Pending(), tm.When(), refAt[id])
				}
			}
		}
		dead := func(where string, tm Timer) {
			t.Helper()
			if tm.Pending() || tm.When() != units.MaxTime || tm.Stop() {
				t.Fatalf("trial %d %s: handle still live", trial, where)
			}
		}
		stop := func(id int) {
			t.Helper()
			if got, want := timers[id].Stop(), ref.cancel(id); !got || !want {
				t.Fatalf("trial %d: Stop(%d) = %v, reference = %v", trial, id, got, want)
			}
			dead("stopped timer", timers[id])
			delete(timers, id)
			delete(refAt, id)
		}
		stopOldest := func() bool {
			best := -1
			for id := range timers {
				if best < 0 || id < best {
					best = id
				}
			}
			if best >= 0 {
				stop(best)
			}
			return best >= 0
		}

		var schedule func() int
		handler := func(id int) func() {
			return func() {
				ev, ok := ref.pop()
				if !ok || ev.id != id || s.Now() != ev.at {
					t.Fatalf("trial %d: fired %d at %v, reference %d at %v (live %v)", trial, id, s.Now(), ev.id, ev.at, ok)
				}
				fired++
				own := timers[id]
				delete(timers, id)
				delete(refAt, id)
				dead("running event's own handle", own)
				check("handler entry")
				if r.Intn(3) == 0 && stopOldest() {
					vacantStops++
					check("stop beside the vacant root")
				}
				k := []int{0, 1, 3}[r.Intn(3)]
				if quiet || ref.len() > 64 {
					k = 0
				}
				if k == 0 {
					idleHandlers++
				}
				var made []int
				for ; k > 0; k-- {
					made = append(made, schedule())
					check("schedule in handler")
				}
				if len(made) > 0 && r.Intn(4) == 0 {
					stop(made[0])
					rootStops++
					check("stop of the event that took the root")
					if r.Intn(2) == 0 {
						schedule()
						check("schedule after it")
					}
				}
				if r.Intn(3) == 0 && stopOldest() {
					check("stop after scheduling")
				}
				if mayHalt && r.Intn(8) == 0 {
					s.Stop()
					halted = true
				}
			}
		}
		schedule = func() int {
			id := nextID
			nextID++
			d := units.Duration(r.Intn(6)) * grid
			refAt[id] = s.Now().Add(d)
			timers[id] = s.After(d, handler(id))
			ref.schedule(refAt[id], id)
			hw = max(hw, ref.len())
			return id
		}
		step := func(where string) bool {
			t.Helper()
			want, n := ref.len() > 0, fired
			if got := s.Step(); got != want || (got && fired != n+1) {
				t.Fatalf("trial %d %s: Step = %v and fired %d, reference %v", trial, where, got, fired-n, want)
			}
			check(where)
			return want
		}
		run := func(deadline units.Time) {
			t.Helper()
			halted = false
			end := s.Run(deadline)
			if end != s.Now() {
				t.Fatalf("trial %d: Run returned %v at %v", trial, end, s.Now())
			}
			if halted {
				halts++
				if end != ref.now {
					t.Fatalf("trial %d: halted at %v, reference fired last at %v", trial, end, ref.now)
				}
			} else if nx, ok := ref.peek(); end != deadline || (ok && nx.at <= deadline) {
				t.Fatalf("trial %d: Run(%v) ended at %v with reference event due at %v (live %v)", trial, deadline, end, nx.at, ok)
			}
			check("after Run")
		}

		for phase := 0; phase < 2; phase++ {
			for i := 0; i < 30; i++ {
				schedule()
			}
			check("seeded")
			for fired0 := fired; fired < fired0+800; {
				if s.Len() < 10 {
					schedule()
				}
				if trial%2 == 1 {
					mayHalt = true
					run(s.Now().Add(units.Duration(r.Intn(8)) * grid))
					mayHalt = false
					continue
				}
				switch r.Intn(4) {
				case 0:
					schedule()
				case 1:
					stopOldest()
				default:
					step("op")
				}
				check("op")
			}
			if phase == 1 {
				break
			}
			// A handler that schedules and halts, then a Reset of the
			// halted scheduler: every handle dies, and the second phase
			// must match a fresh reference on the recycled arena.
			s.After(0, func() {
				ref.pop()
				schedule()
				s.Stop()
			})
			ref.schedule(s.Now(), -1)
			hw = max(hw, ref.len())
			if end := s.Run(units.MaxTime); end != ref.now || s.Len() == 0 {
				t.Fatalf("trial %d: halting handler: Run ended at %v (reference %v) with %d pending", trial, end, ref.now, s.Len())
			}
			check("halted")
			s.Reset()
			for _, tm := range timers {
				dead("after Reset", tm)
			}
			ref, hw = &refScheduler{}, 0
			clear(timers)
			clear(refAt)
			if s.Now() != 0 {
				t.Fatalf("trial %d: Now %v after Reset", trial, s.Now())
			}
			check("after Reset")
		}
		quiet = true
		for i := 0; step("drain"); i++ {
			if i > 100000 {
				t.Fatalf("trial %d: drain does not terminate", trial)
			}
		}
	}
	if vacantStops == 0 || rootStops == 0 || idleHandlers == 0 || halts == 0 {
		t.Fatalf("vacuous: %d stops beside a vacant root, %d of the root's new occupant, %d handlers that scheduled nothing, %d halts",
			vacantStops, rootStops, idleHandlers, halts)
	}
}

// TestPipesMatchPerValueAt is the pipe's contract as a property: random
// interleavings of At/After/Stop with pushes onto several pipes — zero
// delay, two pipes of equal delay, all times on one coarse grid so
// equal-time collisions are the norm — fire in exactly the order of the
// naive reference in which every push was an At. A third of the pipe
// handlers push again from inside the handler, onto their own pipe or
// another (the re-arm must already have happened), and Len must always
// be the live timers plus one per non-empty pipe.
func TestPipesMatchPerValueAt(t *testing.T) {
	const grid = 100 * units.Microsecond
	delays := []units.Duration{0, grid, grid, 3 * grid, 10 * grid}
	var collisions, selfPushes int
	for trial := 0; trial < 40; trial++ {
		r := rng.New(uint64(2000 + trial))
		s := New()
		ref := &refScheduler{}

		var fired []int
		timers := map[int]Timer{}
		inPipe := make([]int, len(delays)) // reference occupancy per pipe
		pipeOf := map[int]int{}            // id -> pipe, for ids pushed onto one
		nextID := 0
		peakLen, peakTimers := 0, 0

		// follow-ups a handler performed, replayed on the reference once
		// it has popped the same event.
		type push struct{ pipe, id int }
		var followed []push

		pipes := make([]*Pipe[int], len(delays))
		pushOn := func(k int) int {
			id := nextID
			nextID++
			pipes[k].Push(s.Now().Add(delays[k]), id)
			pipeOf[id] = k
			return id
		}
		for k := range pipes {
			k := k
			pipes[k] = NewPipe(s, func(id int) {
				fired = append(fired, id)
				if id%3 != 0 {
					return
				}
				to := k // own pipe: empty here if this was its last value
				if id%2 == 0 {
					to = (k + 1) % len(pipes)
				} else {
					selfPushes++
				}
				followed = append(followed, push{to, pushOn(to)})
			})
		}

		wantLen := func() int {
			n := len(timers)
			for _, c := range inPipe {
				if c > 0 {
					n++
				}
			}
			return n
		}
		step := func(where string) bool {
			nFired := len(fired)
			followed = followed[:0]
			simOK := s.Step()
			refEv, refOK := ref.pop()
			if simOK != refOK {
				t.Fatalf("trial %d %s: Step = %v, reference = %v", trial, where, simOK, refOK)
			}
			if !simOK {
				return false
			}
			if len(fired) != nFired+1 || fired[nFired] != refEv.id {
				t.Fatalf("trial %d %s: fired %v, reference fired %d", trial, where, fired[nFired:], refEv.id)
			}
			if s.Now() != refEv.at {
				t.Fatalf("trial %d %s: now %v, reference %v", trial, where, s.Now(), refEv.at)
			}
			if nx, ok := ref.peek(); ok && nx.at == refEv.at {
				collisions++
			}
			if k, ok := pipeOf[refEv.id]; ok {
				inPipe[k]--
				delete(pipeOf, refEv.id)
			} else {
				delete(timers, refEv.id)
			}
			for _, f := range followed {
				ref.schedule(ref.now.Add(delays[f.pipe]), f.id)
				inPipe[f.pipe]++
			}
			return true
		}

		for op := 0; op < 600; op++ {
			switch r.Intn(8) {
			case 0, 1, 2: // push onto a random pipe
				k := r.Intn(len(pipes))
				id := pushOn(k)
				ref.schedule(s.Now().Add(delays[k]), id)
				inPipe[k]++
			case 3: // plain event on the same grid
				id := nextID
				nextID++
				d := units.Duration(r.Intn(12)) * grid
				if r.Intn(2) == 0 {
					timers[id] = s.After(d, func() { fired = append(fired, id) })
				} else {
					timers[id] = s.At(s.Now().Add(d), func() { fired = append(fired, id) })
				}
				ref.schedule(s.Now().Add(d), id)
			case 4: // cancel the oldest live timer
				best := -1
				for id := range timers {
					if best < 0 || id < best {
						best = id
					}
				}
				if best < 0 {
					continue
				}
				if got, want := timers[best].Stop(), ref.cancel(best); got != want {
					t.Fatalf("trial %d: Stop(%d) = %v, reference = %v", trial, best, got, want)
				}
				delete(timers, best)
			default:
				step("op")
			}
			if got, want := s.Len(), wantLen(); got != want {
				t.Fatalf("trial %d op %d: Len = %d, want %d (timers + busy pipes)", trial, op, got, want)
			}
			peakLen = max(peakLen, s.Len())
			peakTimers = max(peakTimers, len(timers))
			for k, p := range pipes {
				if p.Len() != inPipe[k] {
					t.Fatalf("trial %d op %d: pipe %d holds %d, reference %d", trial, op, k, p.Len(), inPipe[k])
				}
			}
		}
		for i := 0; step("drain"); i++ {
			if i > 100000 {
				t.Fatalf("trial %d: drain does not terminate", trial)
			}
		}
		if hw := s.HighWater(); s.Len() != 0 || hw < peakLen || hw > len(pipes)+peakTimers {
			t.Fatalf("trial %d: Len %d after drain, HighWater %d outside [%d, %d pipes + %d timers]",
				trial, s.Len(), hw, peakLen, len(pipes), peakTimers)
		}
	}
	if collisions == 0 || selfPushes == 0 {
		t.Fatalf("vacuous: %d equal-time successions, %d handler pushes onto the firing pipe", collisions, selfPushes)
	}
}

// laneVal is what the lanes of TestLanesMatchPerValueAt carry: an event
// id and the owner that pushed it.
type laneVal struct{ owner, id int }

// sinkVals collects what a Reset lane set held.
type sinkVals []laneVal

func (k *sinkVals) Put(v laneVal) { *k = append(*k, v) }

// TestLanesMatchPerValueAt is the lane set's contract as a property.
// Several owners, more than there are delays, resolve their lanes in one
// set — a zero delay among them, all delays on one coarse grid so that
// equal-time collisions are the norm — and push onto them in a random
// interleaving with plain events, cancellations and steps; values fire
// in exactly the order, and at the times, of the naive reference in
// which every push was an At. Handlers push again from inside, onto the
// lane of another owner, and some first cancel a timer while the root is
// still vacant. Mid-run the scheduler and the set are Reset — the set
// hands back what was in flight, lane by lane and oldest first — and a
// second phase runs on other delays, resolved in another order: the set
// then holds the second phase's delays only, in the first phase's
// storage. Throughout, Len is the live timers plus one per non-empty
// lane, so never more than the distinct delays plus the plain events.
func TestLanesMatchPerValueAt(t *testing.T) {
	const (
		grid   = 100 * units.Microsecond
		owners = 7
	)
	phases := [][]units.Duration{
		{0, grid, 3 * grid, 10 * grid},
		{2 * grid, 0, 7 * grid}, // fewer, other values, zero at another index
	}
	var collisions, handlerPushes, vacantStops, drained int
	for trial := 0; trial < 30; trial++ {
		r := rng.New(uint64(3000 + trial))
		s := New()

		var (
			ref       *refScheduler
			fired     []int
			timers    map[int]Timer
			inLane    [][]laneVal // reference contents per delay, oldest first
			laneOf    map[int]int // id -> index of its delay
			delays    []units.Duration
			lanes     [owners]*Lane[laneVal]
			nextID    int
			peakLen   int
			peakTimer int
		)
		// follow-ups a handler performed, replayed on the reference once
		// it has popped the same event: a cancellation (stop >= 0), then
		// a push.
		type followUp struct {
			stop int
			v    laneVal
		}
		var followed []followUp

		delayOf := func(owner int) int { return owner % len(delays) }
		pushAs := func(owner int) laneVal {
			v := laneVal{owner, nextID}
			nextID++
			lanes[owner].Push(v)
			laneOf[v.id] = delayOf(owner)
			return v
		}
		oldestTimer := func() int {
			best := -1
			for id := range timers {
				if best < 0 || id < best {
					best = id
				}
			}
			return best
		}
		ls := NewLanes(s, func(v laneVal) {
			fired = append(fired, v.id)
			f := followUp{stop: -1}
			if v.id%5 == 0 {
				// Nothing is scheduled yet: the root is vacant.
				if id := oldestTimer(); id >= 0 {
					if !timers[id].Stop() {
						t.Errorf("trial %d: live timer %d did not stop", trial, id)
					}
					delete(timers, id)
					f.stop = id
					vacantStops++
				}
			}
			if v.id%3 == 0 {
				f.v = pushAs((v.owner + 1 + v.id%2) % owners)
				handlerPushes++
			} else if f.stop < 0 {
				return
			} else {
				f.v.id = -1
			}
			followed = append(followed, f)
		})

		wantLen := func() int {
			n := len(timers)
			for _, q := range inLane {
				if len(q) > 0 {
					n++
				}
			}
			return n
		}
		step := func(where string) bool {
			nFired := len(fired)
			followed = followed[:0]
			simOK := s.Step()
			refEv, refOK := ref.pop()
			if simOK != refOK {
				t.Fatalf("trial %d %s: Step = %v, reference = %v", trial, where, simOK, refOK)
			}
			if !simOK {
				return false
			}
			if len(fired) != nFired+1 || fired[nFired] != refEv.id {
				t.Fatalf("trial %d %s: fired %v, reference fired %d", trial, where, fired[nFired:], refEv.id)
			}
			if s.Now() != refEv.at {
				t.Fatalf("trial %d %s: now %v, reference %v", trial, where, s.Now(), refEv.at)
			}
			if nx, ok := ref.peek(); ok && nx.at == refEv.at {
				collisions++
			}
			if k, ok := laneOf[refEv.id]; ok {
				if head := inLane[k][0]; head.id != refEv.id {
					t.Fatalf("trial %d %s: lane %d fired %d past its head %d", trial, where, k, refEv.id, head.id)
				}
				inLane[k] = inLane[k][1:]
				delete(laneOf, refEv.id)
			} else {
				delete(timers, refEv.id)
			}
			for _, f := range followed {
				if f.stop >= 0 && !ref.cancel(f.stop) {
					t.Fatalf("trial %d %s: handler stopped %d, which the reference does not hold", trial, where, f.stop)
				}
				if f.v.id >= 0 {
					k := delayOf(f.v.owner)
					ref.schedule(ref.now.Add(delays[k]), f.v.id)
					inLane[k] = append(inLane[k], f.v)
				}
			}
			return true
		}

		for phase, ds := range phases {
			if phase > 0 {
				// Mid-run: what is in flight comes back, nothing fires.
				var back sinkVals
				s.Reset()
				ls.Reset(&back)
				var want []laneVal
				for _, q := range inLane { // lanes were resolved in delay order
					want = append(want, q...)
				}
				if len(back) != len(want) {
					t.Fatalf("trial %d: Reset handed back %d values, reference holds %d", trial, len(back), len(want))
				}
				for i := range want {
					if back[i] != want[i] {
						t.Fatalf("trial %d: Reset handed back %v at %d, want %v", trial, back[i], i, want[i])
					}
				}
				drained += len(back)
				if s.Len() != 0 || ls.Len() != 0 {
					t.Fatalf("trial %d: after Reset, Len %d with %d lanes", trial, s.Len(), ls.Len())
				}
			}
			ref = &refScheduler{}
			delays = ds
			timers, laneOf = map[int]Timer{}, map[int]int{}
			inLane = make([][]laneVal, len(delays))
			peakLen, peakTimer = 0, 0
			for i := range lanes { // first by delay order, then in reverse
				o := i
				if phase > 0 {
					o = owners - 1 - i
				}
				lanes[o] = ls.Lane(delays[delayOf(o)])
			}
			if ls.Len() != len(delays) || len(ls.lanes) != len(phases[0]) {
				t.Fatalf("trial %d phase %d: %d lanes in %d of storage for %d delays (the first phase had %d)",
					trial, phase, ls.Len(), len(ls.lanes), len(delays), len(phases[0]))
			}

			for op := 0; op < 400; op++ {
				switch r.Intn(8) {
				case 0, 1, 2:
					v := pushAs(r.Intn(owners))
					k := delayOf(v.owner)
					ref.schedule(s.Now().Add(delays[k]), v.id)
					inLane[k] = append(inLane[k], v)
				case 3: // plain event on the same grid
					id := nextID
					nextID++
					d := units.Duration(r.Intn(12)) * grid
					timers[id] = s.After(d, func() { fired = append(fired, id) })
					ref.schedule(s.Now().Add(d), id)
				case 4:
					id := oldestTimer()
					if id < 0 {
						continue
					}
					if got, want := timers[id].Stop(), ref.cancel(id); got != want {
						t.Fatalf("trial %d: Stop(%d) = %v, reference = %v", trial, id, got, want)
					}
					delete(timers, id)
				default:
					step("op")
				}
				if got, want := s.Len(), wantLen(); got != want || got > ls.Len()+len(timers) {
					t.Fatalf("trial %d phase %d op %d: Len = %d, want %d (timers + busy lanes) and ≤ %d lanes + %d timers",
						trial, phase, op, got, want, ls.Len(), len(timers))
				}
				peakLen = max(peakLen, s.Len())
				peakTimer = max(peakTimer, len(timers))
				for o, l := range lanes {
					if l.Len() != len(inLane[delayOf(o)]) {
						t.Fatalf("trial %d phase %d op %d: owner %d's lane holds %d, reference %d",
							trial, phase, op, o, l.Len(), len(inLane[delayOf(o)]))
					}
				}
			}
			if phase == len(phases)-1 {
				for i := 0; step("drain"); i++ {
					if i > 100000 {
						t.Fatalf("trial %d: drain does not terminate", trial)
					}
				}
			}
			if hw := s.HighWater(); hw < peakLen || hw > ls.Len()+peakTimer {
				t.Fatalf("trial %d phase %d: HighWater %d outside [%d, %d lanes + %d timers]",
					trial, phase, hw, peakLen, ls.Len(), peakTimer)
			}
		}
		if s.Len() != 0 {
			t.Fatalf("trial %d: Len %d after drain", trial, s.Len())
		}
	}
	if collisions == 0 || handlerPushes == 0 || vacantStops == 0 || drained == 0 {
		t.Fatalf("vacuous: %d equal-time successions, %d pushes from handlers, %d stops beside a vacant root, %d values in flight at a Reset",
			collisions, handlerPushes, vacantStops, drained)
	}
}

// sinkInts collects what a drained Pipe[int] held.
type sinkInts []int

func (k *sinkInts) Put(v int) { *k = append(*k, v) }

// TestResetWithBusyPipes pins the recycling contract: Scheduler.Reset
// unqueues a busy pipe's entry with everything else (stale Timers
// report not-pending, HighWater restarts), Drain then hands back what
// the pipe held without scheduling or cancelling anything that belongs
// to the new run, and the reused pipe fires only what is pushed after.
// Without a Reset, Drain takes the pipe's entry out itself.
func TestResetWithBusyPipes(t *testing.T) {
	s := New()
	var got []int
	p := NewPipe(s, func(v int) { got = append(got, v) })
	q := NewPipe(s, func(v int) { got = append(got, 100+v) })
	for i := 0; i < 40; i++ { // past the first ring size, so the ring has grown
		p.Push(s.Now().Add(units.Millisecond), i)
	}
	q.Push(s.Now().Add(2*units.Millisecond), 0)
	tm := s.After(5*units.Millisecond, func() { t.Error("event survived Reset") })
	if s.Len() != 3 || s.HighWater() != 3 {
		t.Fatalf("Len %d HighWater %d with two busy pipes and a timer, want 3 and 3", s.Len(), s.HighWater())
	}

	s.Reset()
	if tm.Pending() || tm.Stop() || s.Len() != 0 || s.HighWater() != 0 {
		t.Fatalf("after Reset: pending=%v Len=%d HighWater=%d", tm.Pending(), s.Len(), s.HighWater())
	}
	// The new run's first event lands in a slot the old run released;
	// draining the pipes must not cancel it.
	fresh := s.After(units.Millisecond, func() { got = append(got, -1) })
	var held sinkInts
	p.Drain(&held)
	q.Drain(nil)
	if len(held) != 40 || held[0] != 0 || held[39] != 39 {
		t.Fatalf("Drain handed back %v", held)
	}
	if p.Len() != 0 || q.Len() != 0 || !fresh.Pending() || s.Len() != 1 {
		t.Fatalf("after Drain: pipe lens %d %d, fresh pending %v, Len %d", p.Len(), q.Len(), fresh.Pending(), s.Len())
	}
	p.Push(s.Now().Add(3*units.Millisecond), 7)
	p.Push(s.Now().Add(3*units.Millisecond), 8)
	s.Run(units.Time(units.Second))
	if len(got) != 3 || got[0] != -1 || got[1] != 7 || got[2] != 8 {
		t.Fatalf("recycled pipe fired %v, want [-1 7 8]", got)
	}

	// Mid-run, no Reset: Drain removes the pipe's entry.
	p.Push(s.Now().Add(units.Millisecond), 9)
	if s.Len() != 1 {
		t.Fatalf("Len = %d with one busy pipe", s.Len())
	}
	p.Drain(nil)
	if s.Len() != 0 || s.Step() {
		t.Fatal("Drain left the pipe's entry in the queue")
	}
}

// TestResetWithVacantRoot: a handler that panics out of Run leaves the
// root vacant, its slot already released. Reset (what recycling a world
// does next) must not release that slot a second time: two later events
// would share it and one callback would be lost.
func TestResetWithVacantRoot(t *testing.T) {
	s := New()
	other := s.After(2*units.Millisecond, func() { t.Error("event survived Reset") })
	s.After(units.Millisecond, func() { panic("handler failed") })
	func() {
		defer func() { recover() }()
		s.Run(units.MaxTime)
	}()
	if s.Len() != 1 {
		t.Fatalf("Len = %d after the panic, want the one event still pending", s.Len())
	}
	s.Reset()
	if s.Len() != 0 || s.Now() != 0 || other.Pending() {
		t.Fatalf("after Reset: Len %d Now %v pending %v", s.Len(), s.Now(), other.Pending())
	}
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		s.After(units.Duration(i+1), func() { got = append(got, i) })
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d with three events scheduled", s.Len())
	}
	s.Run(units.MaxTime)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("recycled scheduler fired %v, want [0 1 2]", got)
	}
}

// TestLenExactAfterStop pins the new Len contract: cancelling removes
// the event immediately instead of leaving a dead entry until its fire
// time.
func TestLenExactAfterStop(t *testing.T) {
	s := New()
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, s.After(units.Duration(i+1)*units.Millisecond, func() {}))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	for i, tm := range tms {
		if !tm.Stop() {
			t.Fatalf("Stop %d failed", i)
		}
		if s.Len() != 10-i-1 {
			t.Fatalf("Len = %d after %d stops, want %d", s.Len(), i+1, 10-i-1)
		}
	}
}

// TestStaleHandleAfterSlotReuse verifies generation counting: a handle
// to a fired event must stay dead even after its slot is recycled by a
// new event.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	s := New()
	old := s.After(units.Millisecond, func() {})
	s.Run(units.Time(2 * units.Millisecond))
	if old.Pending() {
		t.Fatal("fired timer still pending")
	}
	// The next event reuses the freed slot.
	fresh := s.After(units.Millisecond, func() {})
	if old.Pending() {
		t.Fatal("stale handle went pending after slot reuse")
	}
	if old.Stop() {
		t.Fatal("stale handle Stop cancelled the new event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer should be pending")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestSchedulerZeroAlloc pins the scheduler's two hot loops at exactly
// zero allocations: a rolling window of pending events with one
// schedule and one fire per step — the access pattern the packet
// simulation produces, over a heap of realistic depth — and the
// schedule-then-cancel pair the transport performs when it re-arms its
// RTO timer on every cumulative ACK.
func TestSchedulerZeroAlloc(t *testing.T) {
	fn := func() {}
	for _, tc := range []struct {
		name    string
		pending int
		step    func(s *Scheduler, i int)
	}{
		{"schedule and fire", 256, func(s *Scheduler, i int) {
			s.After(units.Duration(i%97+1)*units.Microsecond, fn)
			s.Step()
		}},
		{"schedule and cancel", 0, func(s *Scheduler, i int) {
			s.After(units.Duration(i%97+1)*units.Microsecond, fn).Stop()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			for i := 0; i < tc.pending; i++ {
				s.After(units.Duration(i%97+1)*units.Microsecond, fn)
			}
			i := 0
			if allocs := testing.AllocsPerRun(2000, func() { tc.step(s, i); i++ }); allocs != 0 {
				t.Fatalf("%.2f allocations per step, want 0", allocs)
			}
			if s.Len() != tc.pending {
				t.Fatalf("%d events pending afterwards, want %d", s.Len(), tc.pending)
			}
		})
	}
}
