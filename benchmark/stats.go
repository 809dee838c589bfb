package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because
// that is the rule the acceptance check applies to a set of runs. A
// single value is its own quartiles; an empty slice gives zeros.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping j, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of v (the mean of the middle two for an even
// count), 0 for an empty slice.
func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// spread is the distance between the first and third quartile as a
// share of the median: the steadiness figure every bound is held
// against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// tailPercentile is the highest percentile of the ladder 99.9, 99, 90
// that a sample of n supports, meaning at least ten samples lie
// beyond it; below a hundred samples only the median is reportable.
func tailPercentile(n int) float64 {
	switch {
	case n/1000 >= 10:
		return 99.9
	case n/100 >= 10:
		return 99
	case n/10 >= 10:
		return 90
	}
	return 50
}

// percentile is the nearest-rank p-th percentile of v (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s))*p/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
