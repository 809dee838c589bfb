package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 draws collided between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("workload")
	c2 := root.Split("queue")
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("differently-labeled children produced identical first draw")
	}
	// Splitting does not advance the parent.
	p1 := New(7)
	p1.Split("workload")
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestSplitNDistinct(t *testing.T) {
	root := New(9)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		v := root.SplitN("sender", i).Uint64()
		if seen[v] {
			t.Fatalf("SplitN collision at index %d", i)
		}
		seen[v] = true
	}
}

func TestSplitNDeterministic(t *testing.T) {
	if New(3).SplitN("x", 5).Uint64() != New(3).SplitN("x", 5).Uint64() {
		t.Fatal("SplitN not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(12)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[s.Intn(10)]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("Intn(10) value %d drawn %d times out of 10000; badly non-uniform", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		v := s.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange out of range: %d", v)
		}
	}
	if got := s.IntRange(5, 5); got != 5 {
		t.Fatalf("degenerate IntRange = %d", got)
	}
}

func TestUniformMean(t *testing.T) {
	s := New(14)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Uniform(2, 4)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.02 {
		t.Fatalf("Uniform(2,4) mean = %v, want ~3", mean)
	}
}

func TestLogUniform(t *testing.T) {
	s := New(15)
	// All draws in range; log of draw roughly uniform.
	const n = 100000
	sumLog := 0.0
	for i := 0; i < n; i++ {
		v := s.LogUniform(1, 1000)
		if v < 1 || v >= 1000 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
		sumLog += math.Log(v)
	}
	wantMean := math.Log(1000) / 2
	if mean := sumLog / n; math.Abs(mean-wantMean) > 0.03 {
		t.Fatalf("LogUniform log-mean = %v, want ~%v", mean, wantMean)
	}
}

func TestLogUniformDegenerate(t *testing.T) {
	if got := New(1).LogUniform(5, 5); got != 5 {
		t.Fatalf("LogUniform(5,5) = %v", got)
	}
}

func TestLogUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).LogUniform(0, 10)
}

func TestExponentialMean(t *testing.T) {
	s := New(16)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exponential(1.0)
		if v <= 0 {
			t.Fatalf("Exponential returned non-positive %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("Exponential(1) mean = %v, want ~1", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Exponential(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Stream
	_ = s.Uint64() // must not panic
}
