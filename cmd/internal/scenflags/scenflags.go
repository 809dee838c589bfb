// Package scenflags defines, once, the command-line flags that
// describe a network scenario — topology, propagation delay, workload,
// gateway queue, ECN, link-rate modulation, objective weight — for the
// binaries that train on one (remytrain) and evaluate on one
// (remyeval). What the two sweep or draw (link speed, sender count,
// duration, replicas, seed) means different things to each and stays
// with the binary.
package scenflags

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"learnability/internal/cc/newreno"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// Flags holds the parsed values of the scenario flags.
type Flags struct {
	topology  string
	hops      int
	cross     bool
	k         int
	routing   string
	placement string
	incast    int

	rttMs     float64
	onS, offS float64

	bufferBDP    float64
	queue        string
	ecn          bool
	ecnThreshold int

	vrKind     string
	vrLow      float64
	vrMeanHigh float64
	vrMeanLow  float64
	vrFactors  string
	vrDwell    float64

	delta float64
}

// Register declares the scenario flags on fs. Read the result after
// fs has parsed its arguments.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.topology, "topology", "dumbbell", "topology: dumbbell, parkinglot (use -hops, -cross), or fattree (use -k, -routing, -placement)")
	fs.IntVar(&f.hops, "hops", 2, "parking-lot bottleneck links in series")
	fs.BoolVar(&f.cross, "cross", true, "parking-lot cross traffic: one single-hop flow per link")
	fs.IntVar(&f.k, "k", 4, "fat-tree arity (even; k^3/4 hosts)")
	fs.StringVar(&f.routing, "routing", "ecmp", "fat-tree multipath routing: ecmp, spray, or adaptive")
	fs.StringVar(&f.placement, "placement", "permutation", "fat-tree flow placement: permutation, alltoall, or incast")
	fs.IntVar(&f.incast, "incast", 3, "converging flows for -placement incast")
	fs.Float64Var(&f.rttMs, "rtt", 150, "minimum RTT (ms)")
	fs.Float64Var(&f.onS, "on", 1, "mean on time (s)")
	fs.Float64Var(&f.offS, "off", 1, "mean off time (s)")
	fs.Float64Var(&f.bufferBDP, "buffer-bdp", 5, "gateway buffer in bandwidth-delay products; 0 = no-drop")
	fs.StringVar(&f.queue, "queue", "droptail", "gateway queue: droptail, codel, or sfqcodel")
	fs.BoolVar(&f.ecn, "ecn", false, "enable ECN: senders mark packets ECT, gateways CE-mark instead of dropping, ACKs echo the mark")
	fs.IntVar(&f.ecnThreshold, "ecn-threshold", 0, "droptail ECN marking threshold in bytes (0 = half the buffer); codel/sfqcodel mark on sojourn time instead")
	fs.StringVar(&f.vrKind, "varrate", "off", "link-rate modulation: off, onoff, or markov")
	fs.Float64Var(&f.vrLow, "varrate-low", 0.5, "onoff degraded rate as a fraction of the link rate")
	fs.Float64Var(&f.vrMeanHigh, "varrate-mean-high", 1, "onoff mean dwell at full rate (s)")
	fs.Float64Var(&f.vrMeanLow, "varrate-mean-low", 1, "onoff mean dwell at degraded rate (s)")
	fs.StringVar(&f.vrFactors, "varrate-factors", "1,0.5,0.25", "markov rate factors, comma-separated multiples of the link rate (first is initial)")
	fs.Float64Var(&f.vrDwell, "varrate-dwell", 0.5, "markov mean dwell per state (s)")
	fs.Float64Var(&f.delta, "delta", 1, "objective delay weight")
	return f
}

// Delta is the objective's delay weight (-delta), which a Spec carries
// per sender rather than per scenario.
func (f *Flags) Delta() float64 { return f.delta }

// Template resolves the flags into the scenario they describe: a Spec
// with the topology, minimum RTT, workload means, gateway queue, ECN
// and rate-modulation fields set, and everything a binary sweeps or
// draws itself (link speed, senders, duration, seed) left zero. The
// flags only convert: a template is returned when scenario.Spec.Validate
// accepts it completed (complete).
func (f *Flags) Template() (scenario.Spec, error) {
	t, err := f.topologyOf()
	if err != nil {
		return scenario.Spec{}, err
	}
	buffering, err := scenario.ParseBuffering(f.queue)
	if err != nil {
		return scenario.Spec{}, err
	}
	if f.bufferBDP == 0 {
		buffering = scenario.NoDrop
	}
	varRate, err := f.varRate()
	if err != nil {
		return scenario.Spec{}, err
	}
	minRTT, errRTT := duration("-rtt", f.rttMs/1e3)
	meanOn, errOn := duration("-on", f.onS)
	meanOff, errOff := duration("-off", f.offS)
	if err := errors.Join(errRTT, errOn, errOff); err != nil {
		return scenario.Spec{}, err
	}
	tmpl := scenario.Spec{
		Topology:          t,
		MinRTT:            minRTT,
		Buffering:         buffering,
		BufferBDP:         f.bufferBDP,
		ECN:               f.ecn,
		ECNThresholdBytes: f.ecnThreshold,
		VarRate:           varRate,
		MeanOn:            meanOn,
		MeanOff:           meanOff,
	}
	if err := complete(tmpl).Validate(); err != nil {
		return scenario.Spec{}, err
	}
	return tmpl, nil
}

// complete fills in what a binary sweeps or draws itself as one run of
// either might: a 10 Mbps link, 50 ms, a seed, and a NewReno sender on
// each of the topology's flows (two on a dumbbell).
func complete(tmpl scenario.Spec) scenario.Spec {
	tmpl.LinkSpeed, tmpl.Duration, tmpl.Seed = 10*units.Mbps, 50*units.Millisecond, rng.New(1)
	for range max(tmpl.Topology.FlowCount(2), 0) {
		tmpl.Senders = append(tmpl.Senders, scenario.Sender{Alg: newreno.New()})
	}
	return tmpl
}

// maxDuration bounds the seconds a flag converts, far inside a
// units.Duration's range.
const maxDuration = 365 * 24 * 3600 * units.Second

// duration converts a flag's seconds, refusing only what does not
// convert: NaN, and magnitudes past maxDuration.
func duration(name string, s float64) (units.Duration, error) {
	if !(math.Abs(s) <= maxDuration.Seconds()) {
		return 0, fmt.Errorf("%s of %v s does not convert to a duration (at most %v)", name, s, maxDuration)
	}
	return units.DurationFromSeconds(s), nil
}

// topologyOf resolves -topology and the family's own flags; flags of
// the unselected families are ignored.
func (f *Flags) topologyOf() (scenario.Topology, error) {
	switch f.topology {
	case "dumbbell":
		return scenario.Dumbbell, nil
	case "parkinglot", "parking-lot":
		return scenario.ParkingLotN(f.hops, f.cross), nil
	case "fattree", "fat-tree":
		pol, err := topo.ParseRoutingPolicy(f.routing)
		if err != nil {
			return scenario.Topology{}, err
		}
		place, err := scenario.ParsePlacement(f.placement)
		if err != nil {
			return scenario.Topology{}, err
		}
		t := scenario.FatTreeTopology(f.k, pol)
		t.Placement = place
		if place == scenario.PlacementIncast {
			t.IncastN = f.incast
		}
		return t, nil
	}
	return scenario.Topology{}, fmt.Errorf("unknown topology %q (want dumbbell, parkinglot, or fattree)", f.topology)
}

// varRate assembles the -varrate* flags; parameters of the unselected
// family are ignored.
func (f *Flags) varRate() (scenario.VarRate, error) {
	k, err := scenario.ParseVarRateKind(f.vrKind)
	if err != nil {
		return scenario.VarRate{}, err
	}
	vr := scenario.VarRate{Kind: k}
	switch k {
	case scenario.VarRateOnOff:
		vr.LowFactor = f.vrLow
		var errHigh, errLow error
		vr.MeanHigh, errHigh = duration("-varrate-mean-high", f.vrMeanHigh)
		vr.MeanLow, errLow = duration("-varrate-mean-low", f.vrMeanLow)
		err = errors.Join(errHigh, errLow)
	case scenario.VarRateMarkov:
		for _, s := range strings.Split(f.vrFactors, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return scenario.VarRate{}, fmt.Errorf("bad -varrate-factors entry %q", s)
			}
			vr.Factors = append(vr.Factors, x)
		}
		vr.MeanDwell, err = duration("-varrate-dwell", f.vrDwell)
	}
	if err != nil {
		return scenario.VarRate{}, err
	}
	return vr, nil
}
