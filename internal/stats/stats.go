// Package stats implements the paper's figure of merit (§3.2) — the
// objective log(throughput) − delta*log(delay) — its normalized form
// used in Figures 2–4, and the median/one-standard-deviation summaries
// behind the paper's throughput-delay ellipse plots (Figures 1, 7, 9).
package stats

import (
	"math"
	"sort"

	"learnability/internal/units"
)

// floor values keep the objective finite when a flow is starved.
const (
	minThroughputBps = 1e3 // 1 kbit/s
	minDelaySec      = 1e-6
)

// Objective is the paper's §3.2 figure of merit for one sender:
// ln(throughput) − delta*ln(delay). delta expresses the relative
// preference for low delay (1 in most experiments; 0.1 for the
// throughput-sensitive and 10 for the delay-sensitive senders of §4.6).
func Objective(tpt units.Rate, delay units.Duration, delta float64) float64 {
	t := math.Max(float64(tpt), minThroughputBps)
	d := math.Max(delay.Seconds(), minDelaySec)
	return math.Log(t) - float64(delta*math.Log(d))
}

// NormalizedObjective is the form plotted in Figures 2–4:
// ln(throughput/fairShare) − delta*ln(delay/minRTT). The omniscient
// protocol, which gives each sender its fair share with no queueing,
// scores exactly 0.
func NormalizedObjective(tpt, fairShare units.Rate, delay, minRTT units.Duration, delta float64) float64 {
	if fairShare <= 0 || minRTT <= 0 {
		panic("stats: NormalizedObjective needs positive normalizers")
	}
	t := math.Max(float64(tpt), minThroughputBps) / float64(fairShare)
	d := math.Max(delay.Seconds(), minDelaySec) / minRTT.Seconds()
	return math.Log(t) - float64(delta*math.Log(d))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (0 for empty input). The input is
// not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// StdDev returns the population standard deviation of xs (0 for fewer
// than two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += float64((x - m) * (x - m))
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Summary condenses replicate measurements of one protocol on one
// scenario into the values the paper plots: median throughput and
// delay (the small white circle) and one standard deviation in each
// coordinate (the ellipse).
type Summary struct {
	MedianTptBps   float64 // median throughput, bits per second
	MedianDelaySec float64 // median per-packet delay, seconds
	StdTptBps      float64 // throughput standard deviation (ellipse width)
	StdDelaySec    float64 // delay standard deviation (ellipse height)
	N              int     // number of samples summarized
}

// Summarize builds a Summary from parallel slices of throughput and
// delay samples.
func Summarize(tptBps, delaySec []float64) Summary {
	if len(tptBps) != len(delaySec) {
		panic("stats: mismatched sample slices")
	}
	return Summary{
		MedianTptBps:   Median(tptBps),
		MedianDelaySec: Median(delaySec),
		StdTptBps:      StdDev(tptBps),
		StdDelaySec:    StdDev(delaySec),
		N:              len(tptBps),
	}
}
