// Package units defines the physical quantities used throughout the
// simulator: simulated time, data rates, and byte counts, together with
// the conversions between them.
//
// Simulated time is an int64 count of nanoseconds since the start of the
// simulation. Using integer nanoseconds (rather than float64 seconds)
// makes event ordering exact and simulations bit-for-bit reproducible.
package units

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond

	// MaxTime is the largest representable simulated time. It is used as
	// an "infinitely far in the future" sentinel for disabled timers.
	MaxTime Time = math.MaxInt64
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports d as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration as milliseconds.
func (d Duration) String() string { return fmt.Sprintf("%.3fms", d.Milliseconds()) }

// DurationFromSeconds converts a floating-point number of seconds into a
// Duration, rounding to the nearest nanosecond. Seconds outside the
// Duration range, ±Inf included, saturate at its bounds, and NaN reads
// as the upper bound, as +Inf does, the same on every platform: Go
// leaves an out-of-range float-to-int conversion to the platform
// (amd64 gives math.MinInt64). It stays small enough to inline, since
// RemyCC paces every ACK through it.
func DurationFromSeconds(s float64) Duration {
	ns := math.Round(s * float64(Second))
	if ns < math.MaxInt64 { // false for NaN; MaxInt64 rounds to 2⁶³, the first value past the range
		return Duration(max(ns, math.MinInt64))
	}
	return math.MaxInt64
}

// Rate is a data rate in bits per second.
type Rate float64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// String formats the rate in Mbit/s.
func (r Rate) String() string { return fmt.Sprintf("%.3fMbps", float64(r)/float64(Mbps)) }

// TransmissionTime reports how long it takes to serialize bytes octets
// onto a link of rate r. It panics if r is not positive.
func (r Rate) TransmissionTime(bytes int) Duration {
	if r <= 0 {
		panic("units: TransmissionTime on non-positive rate")
	}
	return Duration(math.Round(float64(bytes) * 8 * float64(Second) / float64(r)))
}

// RateFromBytes computes the average rate that delivers the given number
// of bytes over the given duration. It returns 0 if d is not positive.
func RateFromBytes(bytes int64, d Duration) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(bytes) * 8 / d.Seconds())
}

// BDPBytes reports the bandwidth-delay product, in bytes, of a path with
// bottleneck rate r and round-trip time rtt.
func BDPBytes(r Rate, rtt Duration) int {
	return int(math.Round(float64(r) / 8 * rtt.Seconds()))
}
