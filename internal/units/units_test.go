package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeAddSub(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(150 * Millisecond)
	if got := t1.Sub(t0); got != 150*Millisecond {
		t.Fatalf("Sub = %v, want 150ms", got)
	}
	if got := t1.Seconds(); math.Abs(got-0.150) > 1e-12 {
		t.Fatalf("Seconds = %v, want 0.150", got)
	}
}

func TestDurationFromSeconds(t *testing.T) {
	cases := []struct {
		s    float64
		want Duration
	}{
		{1.0, Second},
		{0.001, Millisecond},
		{0.150, 150 * Millisecond},
		{0, 0},
		// In range, to the nearest nanosecond, halves away from zero.
		{1.5e-9, 2},
		{-1.5e-9, -2},
		{0.4e-9, 0},
		{2.6e-9, 3},
		{-2.6e-9, -3},
		{9.2e9, 9_200_000_000 * Second},
		// The largest float64 below 2⁶³ ns is in range; 2⁶³ is not.
		{math.Nextafter(9223372036.854775807, 0), 9223372036854774784},
		{9223372036.854775808, math.MaxInt64},
		{-9223372036.854775808, math.MinInt64},
		// Out of range saturates, and NaN reads as +Inf, on every
		// platform.
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{math.NaN(), math.MaxInt64},
		{math.Copysign(0, -1), 0},
	}
	for _, c := range cases {
		if got := DurationFromSeconds(c.s); got != c.want {
			t.Errorf("DurationFromSeconds(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	f := func(ms int32) bool {
		d := Duration(ms) * Millisecond
		return DurationFromSeconds(d.Seconds()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransmissionTime(t *testing.T) {
	// 1500 bytes at 12 Mbps = 1 ms.
	if got := (12 * Mbps).TransmissionTime(1500); got != Millisecond {
		t.Fatalf("TransmissionTime = %v, want 1ms", got)
	}
	// 1500 bytes at 1.5 Mbps = 8 ms.
	if got := (1500 * Kbps).TransmissionTime(1500); got != 8*Millisecond {
		t.Fatalf("TransmissionTime = %v, want 8ms", got)
	}
}

func TestTransmissionTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero rate")
		}
	}()
	Rate(0).TransmissionTime(1500)
}

func TestRateFromBytes(t *testing.T) {
	// 1,500,000 bytes over 1 second = 12 Mbps.
	if got := RateFromBytes(1_500_000, Second); got != 12*Mbps {
		t.Fatalf("RateFromBytes = %v, want 12Mbps", got)
	}
	if got := RateFromBytes(100, 0); got != 0 {
		t.Fatalf("RateFromBytes with zero duration = %v, want 0", got)
	}
	if got := RateFromBytes(100, -Second); got != 0 {
		t.Fatalf("RateFromBytes with negative duration = %v, want 0", got)
	}
}

func TestBDP(t *testing.T) {
	// 32 Mbps * 150 ms = 600,000 bytes = 400 packets of 1500 B.
	if got := BDPBytes(32*Mbps, 150*Millisecond); got != 600_000 {
		t.Fatalf("BDPBytes = %d, want 600000", got)
	}
	// 10 Mbps * 100 ms = 125,000 bytes.
	if got := BDPBytes(10*Mbps, 100*Millisecond); got != 125_000 {
		t.Fatalf("BDPBytes = %d, want 125000", got)
	}
}

func TestTransmissionTimeMonotonic(t *testing.T) {
	f := func(b uint16) bool {
		n := int(b)
		return (Mbps).TransmissionTime(n+1) >= (Mbps).TransmissionTime(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	if s := (150 * Millisecond).String(); s != "150.000ms" {
		t.Errorf("Duration.String = %q", s)
	}
	if s := (32 * Mbps).String(); s != "32.000Mbps" {
		t.Errorf("Rate.String = %q", s)
	}
	if s := Time(1500 * int64(Millisecond)).String(); s != "1.500000s" {
		t.Errorf("Time.String = %q", s)
	}
}
