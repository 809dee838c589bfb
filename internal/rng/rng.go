// Package rng provides deterministic, splittable pseudo-random number
// streams for the simulator and the Remy trainer.
//
// Every source of randomness in an experiment is derived from a single
// root seed through named splits, so that an experiment is exactly
// reproducible from its seed, and so that adding a new consumer of
// randomness does not perturb the draws seen by existing consumers.
//
// The core generator is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014),
// which is small, fast, statistically solid for simulation purposes, and
// trivially seedable from a hash of a parent state and a label.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random number stream. The zero value
// is a valid stream seeded with 0; prefer New or Stream.Split to obtain
// streams with distinct, well-mixed seeds.
type Stream struct {
	state uint64
}

// New returns a stream seeded from seed.
func New(seed uint64) *Stream {
	return &Stream{state: mix(seed)}
}

// Split derives an independent child stream identified by label. Splitting
// is deterministic: the same parent seed and label always yield the same
// child, and the parent's own sequence is not advanced.
func (s *Stream) Split(label string) *Stream {
	c := s.split(label)
	return &c
}

// SplitN derives an independent child stream identified by an integer,
// for per-index children (per-sender, per-seed-replica, ...).
//
// Split and SplitN inline, so a caller that copies the child into
// storage it owns (*dst = *s.SplitN(label, n)) allocates nothing.
func (s *Stream) SplitN(label string, n int) *Stream {
	c := s.splitN(label, n)
	return &c
}

// split is Split by value.
func (s *Stream) split(label string) Stream {
	h := fnv.New64a()
	h.Write([]byte(label))
	return Stream{state: mix(s.state ^ h.Sum64())}
}

// splitN is SplitN by value.
func (s *Stream) splitN(label string, n int) Stream {
	c := s.split(label)
	c.state = mix(c.state ^ uint64(n)*0x9e3779b97f4a7c15)
	return c
}

// State exposes the stream's current internal state word. Two streams
// with equal states produce identical draw sequences, so the state is a
// canonical fingerprint of everything that seeded the stream (root
// seed, split labels, split indices) — the sharded trainer hashes it
// into content-addressed cache keys.
func (s *Stream) State() uint64 { return s.state }

// Uint64 returns the next 64 random bits (SplitMix64).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1). The quotient is rounded
// explicitly (exact either way), so that no caller's arithmetic fuses
// with it into one multiply-add.
func (s *Stream) Float64() float64 {
	return float64(float64(s.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// IntRange returns a uniform draw in [lo, hi] inclusive. It panics if
// hi < lo.
func (s *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Uniform returns a uniform draw in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*s.Float64())
}

// LogUniform returns a draw whose logarithm is uniform over
// [log lo, log hi). This matches the paper's sampling of link speeds
// "logarithmically from the range". It panics unless 0 < lo <= hi.
func (s *Stream) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("rng: LogUniform requires 0 < lo <= hi")
	}
	if lo == hi {
		return lo
	}
	return math.Exp(s.Uniform(math.Log(lo), math.Log(hi)))
}

// Exponential returns a draw from the exponential distribution with the
// given mean. It panics if mean is not positive. The draw is strictly
// positive.
func (s *Stream) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential with non-positive mean")
	}
	u := s.Float64()
	// 1-u is in (0, 1], so Log never sees 0.
	return -mean * math.Log(1-u)
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
