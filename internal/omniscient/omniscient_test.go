package omniscient

import (
	"math"
	"testing"
	"testing/quick"

	"learnability/internal/rng"
	"learnability/internal/units"
)

func TestDumbbellEqualSplit(t *testing.T) {
	s := Dumbbell(32*units.Mbps, 150*units.Millisecond, 4, 0.5)
	on := []bool{true, true, true, true}
	x := s.Allocate(on)
	for i, r := range x {
		if math.Abs(float64(r)-8e6)/8e6 > 1e-6 {
			t.Fatalf("flow %d allocation = %v, want 8 Mbps", i, r)
		}
	}
}

func TestAllocateInactiveGetZero(t *testing.T) {
	s := Dumbbell(10*units.Mbps, 100*units.Millisecond, 3, 0.5)
	x := s.Allocate([]bool{true, false, true})
	if x[1] != 0 {
		t.Fatalf("inactive flow got %v", x[1])
	}
	if math.Abs(float64(x[0])-5e6)/5e6 > 1e-6 {
		t.Fatalf("active flow got %v, want 5 Mbps", x[0])
	}
}

func TestAllocateNoneActive(t *testing.T) {
	s := Dumbbell(10*units.Mbps, 100*units.Millisecond, 2, 0.5)
	x := s.Allocate([]bool{false, false})
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("allocations = %v", x)
	}
}

func TestParkingLotKKT(t *testing.T) {
	// Equal link speeds C: proportional fairness gives the long flow
	// C/3 and each short flow 2C/3 (x0 = 1/(l1+l2), x1 = 1/l1,
	// x2 = 1/l2, both constraints tight, symmetric -> l1 = l2).
	s := ParkingLot(30*units.Mbps, 30*units.Mbps, 75*units.Millisecond, 0.5)
	x := s.Allocate([]bool{true, true, true})
	if math.Abs(float64(x[0])-10e6)/10e6 > 1e-4 {
		t.Fatalf("long flow = %v, want 10 Mbps", x[0])
	}
	if math.Abs(float64(x[1])-20e6)/20e6 > 1e-4 {
		t.Fatalf("short flow 1 = %v, want 20 Mbps", x[1])
	}
	if math.Abs(float64(x[2])-20e6)/20e6 > 1e-4 {
		t.Fatalf("short flow 2 = %v, want 20 Mbps", x[2])
	}
}

func TestParkingLotAsymmetric(t *testing.T) {
	// Verify feasibility and tightness for asymmetric links via the
	// KKT structure: x0 = 1/(l1+l2), x1 = 1/l1, x2 = 1/l2 with both
	// links saturated.
	s := ParkingLot(10*units.Mbps, 100*units.Mbps, 75*units.Millisecond, 0.5)
	x := s.Allocate([]bool{true, true, true})
	load1 := float64(x[0] + x[1])
	load2 := float64(x[0] + x[2])
	if math.Abs(load1-10e6)/10e6 > 1e-3 {
		t.Fatalf("link 1 load = %v, want saturated at 10 Mbps", load1)
	}
	if math.Abs(load2-100e6)/100e6 > 1e-3 {
		t.Fatalf("link 2 load = %v, want saturated at 100 Mbps", load2)
	}
	// Long flow is worth less than either short flow (pays two prices).
	if x[0] >= x[1] || x[0] >= x[2] {
		t.Fatalf("long flow %v not below short flows %v, %v", x[0], x[1], x[2])
	}
}

// Property: allocations are always capacity-feasible, and for flows
// sharing identical paths, equal.
func TestPropertyFeasibility(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c1 := units.Rate(r.LogUniform(1e6, 1e9))
		c2 := units.Rate(r.LogUniform(1e6, 1e9))
		s := ParkingLot(c1, c2, 75*units.Millisecond, 0.5)
		on := []bool{r.Float64() < 0.7, r.Float64() < 0.7, r.Float64() < 0.7}
		x := s.Allocate(on)
		load1 := float64(x[0] + x[1])
		load2 := float64(x[0] + x[2])
		return load1 <= float64(c1)*1.001 && load2 <= float64(c2)*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedThroughputTwoSenders(t *testing.T) {
	// Two senders, each on half the time. Conditioned on sender 0
	// being on: other on w.p. 1/2 -> C/2, else C.
	// E = 0.5*C + 0.5*C/2 = 0.75C.
	s := Dumbbell(32*units.Mbps, 150*units.Millisecond, 2, 0.5)
	got := float64(s.ExpectedThroughput(0))
	want := 0.75 * 32e6
	if math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("ExpectedThroughput = %v, want %v", got, want)
	}
}

func TestExpectedThroughputAlwaysOn(t *testing.T) {
	s := Dumbbell(10*units.Mbps, 100*units.Millisecond, 2, 1.0)
	got := float64(s.ExpectedThroughput(0))
	if math.Abs(got-5e6)/5e6 > 1e-6 {
		t.Fatalf("got %v, want 5 Mbps", got)
	}
}

func TestExpectedThroughputMonteCarloMatchesBinomial(t *testing.T) {
	// 20 senders (beyond the exact-enumeration limit), p = 0.5:
	// E[C/(K+1)] with K ~ Binomial(19, 0.5).
	const n = 20
	s := Dumbbell(15*units.Mbps, 150*units.Millisecond, n, 0.5)
	got := float64(s.ExpectedThroughput(0))
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	want := 0.0
	for k := 0; k <= n-1; k++ {
		// Binomial(n-1, 0.5) pmf at k.
		lp := lg(n-1) - lg(k) - lg(n-1-k) + float64(n-1)*math.Log(0.5)
		want += math.Exp(lp) * 15e6 / float64(k+1)
	}
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("Monte Carlo = %v, binomial = %v", got, want)
	}
}

func TestDelayIsPropagation(t *testing.T) {
	s := Dumbbell(10*units.Mbps, 100*units.Millisecond, 2, 0.5)
	if s.Delay(0) != 50*units.Millisecond {
		t.Fatalf("Delay = %v, want 50ms", s.Delay(0))
	}
}

func TestExpectedThroughputDeterministic(t *testing.T) {
	s := Dumbbell(15*units.Mbps, 150*units.Millisecond, 30, 0.5)
	a := s.ExpectedThroughput(3)
	b := s.ExpectedThroughput(3)
	if a != b {
		t.Fatal("Monte Carlo estimate not deterministic")
	}
}

func TestAllocatePanicsOnBadInput(t *testing.T) {
	s := Dumbbell(units.Mbps, units.Millisecond, 2, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Allocate([]bool{true})
}

func TestExpectedThroughputPanicsOutOfRange(t *testing.T) {
	s := Dumbbell(units.Mbps, units.Millisecond, 2, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ExpectedThroughput(5)
}
