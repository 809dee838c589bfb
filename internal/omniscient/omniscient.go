// Package omniscient implements the paper's hypothetical "omniscient"
// reference protocol (§1.1): a centralized allocator that knows the
// topology and which senders are on, gives every active sender its
// proportionally fair throughput allocation the instant the active set
// changes, and never builds a queue. A sender's long-term throughput is
// the expected value of its allocation over the stationary distribution
// of the other senders' on/off processes, and its delay is the path's
// propagation delay.
package omniscient

import (
	"math"

	"learnability/internal/rng"
	"learnability/internal/units"
)

// Flow describes one sender for the allocator.
type Flow struct {
	// Links lists the indices of the links the flow crosses.
	Links []int
	// OnProb is the stationary probability the sender is on
	// (meanOn / (meanOn + meanOff)).
	OnProb float64
	// MinRTT is the flow's round-trip propagation delay; the
	// omniscient protocol's per-packet delay is MinRTT/2 one-way.
	MinRTT units.Duration
}

// System is a topology for proportional-fair allocation.
type System struct {
	// Capacities holds each link's rate.
	Capacities []units.Rate
	// Flows holds the senders.
	Flows []Flow
}

// exactEnumerationLimit bounds the number of flows for which expected
// throughput is computed by exact enumeration of on/off subsets;
// beyond it a deterministic Monte Carlo estimate is used.
const exactEnumerationLimit = 12

// monteCarloSamples is the sample count for large systems.
const monteCarloSamples = 20000

// Allocate computes the proportionally fair rates for the active flows
// (on[i] reports whether flow i is on). Inactive flows get 0. The
// allocation maximizes sum log(x_i) over active flows subject to the
// link capacity constraints, computed by dual (sub)gradient iteration
// on per-link prices; for the paper's topologies (one or two links)
// this converges quickly and tests verify the KKT conditions.
func (s *System) Allocate(on []bool) []units.Rate {
	if len(on) != len(s.Flows) {
		panic("omniscient: active-set length mismatch")
	}
	x := make([]units.Rate, len(s.Flows))
	active := make([]int, 0, len(s.Flows))
	for i, o := range on {
		if o {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return x
	}
	// Dual prices per link, initialized so that rates start near a
	// feasible region.
	nl := len(s.Capacities)
	lambda := make([]float64, nl)
	usersOf := make([][]int, nl)
	for _, i := range active {
		for _, l := range s.Flows[i].Links {
			usersOf[l] = append(usersOf[l], i)
		}
	}
	for l := 0; l < nl; l++ {
		if len(usersOf[l]) > 0 {
			lambda[l] = float64(len(usersOf[l])) / float64(s.Capacities[l])
		}
	}
	rates := make([]float64, len(s.Flows))
	for iter := 0; iter < 20000; iter++ {
		// Primal step: x_i = 1 / sum of prices along the path.
		for _, i := range active {
			sum := 0.0
			for _, l := range s.Flows[i].Links {
				sum += lambda[l]
			}
			if sum <= 0 {
				sum = 1e-12
			}
			rates[i] = 1 / sum
		}
		// Dual step: raise prices on overloaded links, lower on
		// underloaded ones (only where there are users).
		maxViolation := 0.0
		for l := 0; l < nl; l++ {
			if len(usersOf[l]) == 0 {
				continue
			}
			load := 0.0
			for _, i := range usersOf[l] {
				load += rates[i]
			}
			cap := float64(s.Capacities[l])
			rel := (load - cap) / cap
			if v := math.Abs(rel); v > maxViolation {
				maxViolation = v
			}
			lambda[l] *= 1 + float64(0.5*rel)
			if lambda[l] < 1e-18 {
				lambda[l] = 1e-18
			}
		}
		if maxViolation < 1e-9 {
			break
		}
	}
	for _, i := range active {
		x[i] = units.Rate(rates[i])
	}
	return x
}

// ExpectedThroughput returns flow i's expected proportionally fair
// allocation conditioned on flow i being on, averaging over the on/off
// states of the other flows. Systems with at most exactEnumerationLimit
// flows are enumerated exactly; larger ones use a seeded Monte Carlo
// estimate (deterministic across runs).
func (s *System) ExpectedThroughput(i int) units.Rate {
	n := len(s.Flows)
	if i < 0 || i >= n {
		panic("omniscient: flow index out of range")
	}
	if n <= exactEnumerationLimit {
		return s.expectedExact(i)
	}
	return s.expectedMonteCarlo(i)
}

func (s *System) expectedExact(i int) units.Rate {
	n := len(s.Flows)
	on := make([]bool, n)
	var total float64
	var walk func(j int, prob float64)
	walk = func(j int, prob float64) {
		if prob == 0 {
			return
		}
		if j == n {
			total += float64(prob * float64(s.Allocate(on)[i]))
			return
		}
		if j == i {
			on[j] = true
			walk(j+1, prob)
			return
		}
		p := s.Flows[j].OnProb
		on[j] = true
		walk(j+1, prob*p)
		on[j] = false
		walk(j+1, prob*(1-p))
	}
	walk(0, 1)
	return units.Rate(total)
}

func (s *System) expectedMonteCarlo(i int) units.Rate {
	n := len(s.Flows)
	r := rng.New(0xfacade).SplitN("omniscient", i)
	on := make([]bool, n)
	var total float64
	for k := 0; k < monteCarloSamples; k++ {
		for j := 0; j < n; j++ {
			on[j] = j == i || r.Float64() < s.Flows[j].OnProb
		}
		total += float64(s.Allocate(on)[i])
	}
	return units.Rate(total / monteCarloSamples)
}

// Delay returns the omniscient protocol's average per-packet one-way
// delay for flow i: half the round-trip propagation delay (no
// queueing).
func (s *System) Delay(i int) units.Duration {
	return s.Flows[i].MinRTT / 2
}

// Dumbbell builds the System for n identical senders sharing one link.
func Dumbbell(rate units.Rate, minRTT units.Duration, n int, onProb float64) *System {
	s := &System{Capacities: []units.Rate{rate}}
	for i := 0; i < n; i++ {
		s.Flows = append(s.Flows, Flow{Links: []int{0}, OnProb: onProb, MinRTT: minRTT})
	}
	return s
}

// ParkingLot builds the System for the paper's Figure 5 topology:
// flow 0 crosses both links, flow 1 only link 0, flow 2 only link 1.
func ParkingLot(rate1, rate2 units.Rate, hopProp units.Duration, onProb float64) *System {
	return &System{
		Capacities: []units.Rate{rate1, rate2},
		Flows: []Flow{
			{Links: []int{0, 1}, OnProb: onProb, MinRTT: 4 * hopProp},
			{Links: []int{0}, OnProb: onProb, MinRTT: 2 * hopProp},
			{Links: []int{1}, OnProb: onProb, MinRTT: 2 * hopProp},
		},
	}
}
