package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"learnability/internal/rng"
	"learnability/internal/units"
)

func TestRunsInTimeOrder(t *testing.T) {
	s := New()
	var got []units.Time
	times := []units.Duration{5, 1, 3, 2, 4}
	for _, d := range times {
		d := d
		s.After(d*units.Millisecond, func() { got = append(got, s.Now()) })
	}
	s.Run(units.MaxTime)
	if len(got) != 5 {
		t.Fatalf("executed %d events, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
}

func TestTieBreakByInsertionOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(units.Time(units.Millisecond), func() { order = append(order, i) })
	}
	s.Run(units.MaxTime)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v, want insertion order", order)
		}
	}
}

func TestDeadline(t *testing.T) {
	s := New()
	ran := 0
	s.After(units.Millisecond, func() { ran++ })
	s.After(units.Second, func() { ran++ })
	end := s.Run(units.Time(10 * units.Millisecond))
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if end != units.Time(10*units.Millisecond) {
		t.Fatalf("Run returned %v, want deadline", end)
	}
	if s.Now() != units.Time(10*units.Millisecond) {
		t.Fatalf("Now = %v after deadline return", s.Now())
	}
	// Resume: the second event is still there.
	s.Run(units.MaxTime)
	if ran != 2 {
		t.Fatalf("ran %d events after resume, want 2", ran)
	}
}

func TestDrainAdvancesToDeadline(t *testing.T) {
	s := New()
	s.After(units.Millisecond, func() {})
	end := s.Run(units.Time(units.Second))
	if end != units.Time(units.Second) {
		t.Fatalf("Run = %v, want full deadline after drain", end)
	}
}

func TestStop(t *testing.T) {
	s := New()
	ran := 0
	s.After(1, func() { ran++; s.Stop() })
	s.After(2, func() { ran++ })
	s.Run(units.MaxTime)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (stopped)", ran)
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	ran := false
	tm := s.After(units.Millisecond, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run(units.MaxTime)
	if ran {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerWhen(t *testing.T) {
	s := New()
	tm := s.At(units.Time(5*units.Millisecond), func() {})
	if tm.When() != units.Time(5*units.Millisecond) {
		t.Fatalf("When = %v", tm.When())
	}
	tm.Stop()
	if tm.When() != units.MaxTime {
		t.Fatalf("When after Stop = %v, want MaxTime", tm.When())
	}
	var zeroTimer Timer
	if zeroTimer.Pending() {
		t.Fatal("zero timer should not be pending")
	}
	if zeroTimer.Stop() {
		t.Fatal("zero timer Stop should be false")
	}
	if zeroTimer.When() != units.MaxTime {
		t.Fatal("zero timer When should be MaxTime")
	}
}

func TestTimerFiredNotPending(t *testing.T) {
	s := New()
	tm := s.After(1, func() {})
	s.Run(units.MaxTime)
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop on fired timer should be false")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(units.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(0, func() {})
	})
	s.Run(units.MaxTime)
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().At(0, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().After(-1, func() {})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var got []int
	s.After(units.Millisecond, func() {
		got = append(got, 1)
		s.After(units.Millisecond, func() { got = append(got, 2) })
	})
	s.Run(units.MaxTime)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", s.Processed())
	}
}

// Property: for any multiset of scheduling times, execution order is the
// sorted order.
func TestPropertyOrdering(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		r := rng.New(seed)
		s := New()
		times := make([]units.Duration, n)
		var got []units.Time
		for i := 0; i < n; i++ {
			times[i] = units.Duration(r.Intn(50)) * units.Millisecond
			s.After(times[i], func() { got = append(got, s.Now()) })
		}
		s.Run(units.MaxTime)
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(got) != n {
			return false
		}
		for i, d := range times {
			if got[i] != units.Time(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStep(t *testing.T) {
	s := New()
	ran := 0
	s.After(1, func() { ran++ })
	s.After(2, func() { ran++ })
	if !s.Step() || ran != 1 {
		t.Fatal("first Step failed")
	}
	if !s.Step() || ran != 2 {
		t.Fatal("second Step failed")
	}
	if s.Step() {
		t.Fatal("Step on empty queue should be false")
	}
}
