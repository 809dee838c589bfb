package scenario

import (
	"fmt"

	"learnability/internal/netsim"
	"learnability/internal/rng"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// VarRateKind selects the stochastic link-rate family.
type VarRateKind int

// Supported link-rate processes.
const (
	// VarRateNone leaves every link at its configured constant rate.
	VarRateNone VarRateKind = iota
	// VarRateOnOff alternates each link between its configured rate
	// ("high") and LowFactor times it ("low"), with exponential dwell
	// times of mean MeanHigh and MeanLow — a coarse model of a shared
	// channel that periodically degrades.
	VarRateOnOff
	// VarRateMarkov walks each link over Factors (multiples of its
	// configured rate) as a symmetric Markov chain: exponential dwells
	// of mean MeanDwell, then a uniform jump to one of the other
	// states — WiFi-like rate adaptation stepping through MCS tiers.
	VarRateMarkov
)

// VarRate describes a stochastic rate process applied independently to
// every link of a scenario. Each link starts at its configured rate
// (state 0 for the Markov family) and evolves on its own rng stream
// derived from the spec seed, so runs are deterministic per seed and
// adding links never perturbs existing ones. The zero value means
// constant rates. All fields are JSON-serializable so the family rides
// through training configs and the shard protocol unchanged.
type VarRate struct {
	// Kind selects the family; VarRateNone disables modulation.
	Kind VarRateKind `json:"kind,omitempty"`

	// LowFactor is the degraded-state rate as a fraction of the link's
	// configured rate (VarRateOnOff only), in (0, 1].
	LowFactor float64 `json:"low_factor,omitempty"`
	// MeanHigh is the mean dwell at the configured rate (VarRateOnOff).
	MeanHigh units.Duration `json:"mean_high,omitempty"`
	// MeanLow is the mean dwell at the degraded rate (VarRateOnOff).
	MeanLow units.Duration `json:"mean_low,omitempty"`

	// Factors are the Markov states as multiples of the link's
	// configured rate (VarRateMarkov only); Factors[0] is the initial
	// state. At least two states, all positive.
	Factors []float64 `json:"factors,omitempty"`
	// MeanDwell is the mean dwell in each Markov state (VarRateMarkov).
	MeanDwell units.Duration `json:"mean_dwell,omitempty"`
}

// Enabled reports whether the spec modulates link rates at all.
func (v VarRate) Enabled() bool { return v.Kind != VarRateNone }

// ParseVarRateKind resolves a rate-process name ("off", "onoff",
// "markov") for CLI flags.
func ParseVarRateKind(s string) (VarRateKind, error) {
	switch s {
	case "", "off", "none":
		return VarRateNone, nil
	case "onoff", "on-off":
		return VarRateOnOff, nil
	case "markov":
		return VarRateMarkov, nil
	}
	return 0, fmt.Errorf("scenario: unknown var-rate kind %q (want off, onoff, or markov)", s)
}

// Validate checks the family's parameters.
func (v VarRate) Validate() error {
	switch v.Kind {
	case VarRateNone:
		return nil
	case VarRateOnOff:
		if v.LowFactor <= 0 || v.LowFactor > 1 {
			return fmt.Errorf("scenario: on/off var-rate low factor %v outside (0, 1]", v.LowFactor)
		}
		if v.MeanHigh <= 0 || v.MeanLow <= 0 {
			return fmt.Errorf("scenario: on/off var-rate needs positive dwell means, got %v high / %v low",
				v.MeanHigh, v.MeanLow)
		}
		return nil
	case VarRateMarkov:
		if len(v.Factors) < 2 {
			return fmt.Errorf("scenario: Markov var-rate needs at least 2 states, got %d", len(v.Factors))
		}
		for i, f := range v.Factors {
			if f <= 0 {
				return fmt.Errorf("scenario: Markov var-rate state %d has non-positive factor %v", i, f)
			}
		}
		if v.MeanDwell <= 0 {
			return fmt.Errorf("scenario: Markov var-rate needs a positive mean dwell, got %v", v.MeanDwell)
		}
		return nil
	default:
		return fmt.Errorf("scenario: unknown var-rate kind %d", v.Kind)
	}
}

// rateProc is one link's rate process: the entry it fires through,
// which it owns for its world's whole life, and its state, kept in the
// world so that arming it for another run allocates nothing.
type rateProc struct {
	s     *sim.Scheduler
	l     *netsim.Link
	entry sim.Deadlines // one deadline: the end of the current dwell

	vr    VarRate
	base  units.Rate // the link's configured rate
	rng   rng.Stream
	high  bool // VarRateOnOff: the link is at its configured rate
	state int  // VarRateMarkov: index of the current factor
}

// armVarRate starts each link's rate process on the network's
// scheduler, through procs, which hold one per link: made on the first
// run that needs them and kept with the network they are bound to. It
// runs once per run, after the network is built or recycled and before
// the simulation starts; the per-link streams are split from the spec
// seed by link index, so they neither advance the workload streams nor
// depend on link count.
func (s *Spec) armVarRate(nw *netsim.Network, procs *[]rateProc) {
	if !s.VarRate.Enabled() {
		return
	}
	if *procs == nil {
		ps := make([]rateProc, len(nw.Links))
		for i := range ps {
			p := &ps[i]
			p.s, p.l = nw.Sched, nw.Links[i]
			p.entry.Init(nw.Sched, 1, p.fire)
		}
		*procs = ps
	}
	root := s.Seed.Split("varrate")
	for i := range *procs {
		p := &(*procs)[i]
		p.rng = *root.SplitN("link", i)
		p.start(s.VarRate)
	}
}

// start begins the link's process: at its configured rate (state 0 for
// the Markov family) until the first dwell ends.
func (p *rateProc) start(vr VarRate) {
	p.entry.Reset()
	p.vr, p.base = vr, p.l.Rate()
	switch vr.Kind {
	case VarRateOnOff:
		p.high = true
		p.dwell(vr.MeanHigh)
	case VarRateMarkov:
		p.state = 0
		p.l.SetRate(p.base * units.Rate(vr.Factors[0]))
		p.dwell(vr.MeanDwell)
	}
}

// dwell arms the end of a dwell drawn with the given mean.
func (p *rateProc) dwell(mean units.Duration) {
	p.entry.Arm(0, p.s.Now().Add(units.DurationFromSeconds(p.rng.Exponential(mean.Seconds()))))
}

// fire is the entry's handler: the dwell ended, so the link moves to
// its next state and the next dwell begins.
func (p *rateProc) fire(int) {
	vr := &p.vr
	switch vr.Kind {
	case VarRateOnOff:
		p.high = !p.high
		if p.high {
			p.l.SetRate(p.base)
			p.dwell(vr.MeanHigh)
		} else {
			p.l.SetRate(p.base * units.Rate(vr.LowFactor))
			p.dwell(vr.MeanLow)
		}
	case VarRateMarkov:
		next := p.rng.Intn(len(vr.Factors) - 1)
		if next >= p.state {
			next++
		}
		p.state = next
		p.l.SetRate(p.base * units.Rate(vr.Factors[next]))
		p.dwell(vr.MeanDwell)
	}
}
