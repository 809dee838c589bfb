package scenflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"learnability/internal/scenario"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// parse runs args through a fresh flag set holding only the scenario
// flags and resolves the template.
func parse(t *testing.T, args ...string) (scenario.Spec, *Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("scenflags", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	tmpl, err := f.Template()
	return tmpl, f, err
}

// defaults is the template of an empty command line: the paper's
// dumbbell, 150 ms, 1 s on / 1 s off, 5 BDP of drop-tail.
func defaults() scenario.Spec {
	return scenario.Spec{
		Topology:  scenario.Dumbbell,
		MinRTT:    150 * units.Millisecond,
		Buffering: scenario.FiniteDropTail,
		BufferBDP: 5,
		MeanOn:    units.Second,
		MeanOff:   units.Second,
	}
}

// TestTemplate table-tests flag → template: every family of scenario
// flag lands in the Spec field it describes, flags of an unselected
// family are ignored, and -buffer-bdp 0 means an unbounded queue
// whatever -queue says.
func TestTemplate(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want func(*scenario.Spec)
	}{
		{"defaults", nil, func(*scenario.Spec) {}},
		{"timing", []string{"-rtt", "40", "-on", "2.5", "-off", "0.5"}, func(s *scenario.Spec) {
			s.MinRTT = 40 * units.Millisecond
			s.MeanOn = 2500 * units.Millisecond
			s.MeanOff = 500 * units.Millisecond
		}},
		{"parking lot", []string{"-topology", "parkinglot", "-hops", "3", "-cross=false"}, func(s *scenario.Spec) {
			s.Topology = scenario.ParkingLotN(3, false)
		}},
		{"parking lot alias ignores fat-tree flags", []string{"-topology", "parking-lot", "-k", "7", "-routing", "wormhole"}, func(s *scenario.Spec) {
			s.Topology = scenario.ParkingLot
		}},
		{"fat-tree", []string{"-topology", "fattree", "-k", "6", "-routing", "adaptive", "-placement", "alltoall", "-incast", "9"}, func(s *scenario.Spec) {
			s.Topology = scenario.FatTreeTopology(6, topo.Adaptive)
			s.Topology.Placement = scenario.PlacementAllToAll
		}},
		{"fat-tree incast", []string{"-topology", "fat-tree", "-routing", "spray", "-placement", "incast", "-incast", "5"}, func(s *scenario.Spec) {
			s.Topology = scenario.FatTreeIncast(4, 5, topo.Spray)
		}},
		{"sfqcodel with ECN", []string{"-queue", "sfqcodel", "-buffer-bdp", "2", "-ecn"}, func(s *scenario.Spec) {
			s.Buffering = scenario.SfqCoDel
			s.BufferBDP = 2
			s.ECN = true
		}},
		{"marking drop-tail threshold", []string{"-ecn", "-ecn-threshold", "12000"}, func(s *scenario.Spec) {
			s.ECN = true
			s.ECNThresholdBytes = 12000
		}},
		{"zero buffer is no-drop", []string{"-queue", "codel", "-buffer-bdp", "0"}, func(s *scenario.Spec) {
			s.Buffering = scenario.NoDrop
			s.BufferBDP = 0
		}},
		{"on/off rate ignores markov flags", []string{"-varrate", "onoff", "-varrate-low", "0.25", "-varrate-mean-high", "2", "-varrate-mean-low", "0.5", "-varrate-factors", "bogus"}, func(s *scenario.Spec) {
			s.VarRate = scenario.VarRate{
				Kind: scenario.VarRateOnOff, LowFactor: 0.25,
				MeanHigh: 2 * units.Second, MeanLow: 500 * units.Millisecond,
			}
		}},
		{"markov rate", []string{"-varrate", "markov", "-varrate-factors", "1, 0.5,,0.1", "-varrate-dwell", "0.2"}, func(s *scenario.Spec) {
			s.VarRate = scenario.VarRate{
				Kind: scenario.VarRateMarkov, Factors: []float64{1, 0.5, 0.1},
				MeanDwell: 200 * units.Millisecond,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := parse(t, tc.args...)
			if err != nil {
				t.Fatalf("Template: %v", err)
			}
			want := defaults()
			tc.want(&want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("template\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestDelta checks the one scenario flag that is not a Spec field.
func TestDelta(t *testing.T) {
	if _, f, _ := parse(t); f.Delta() != 1 {
		t.Fatalf("default delta = %v, want 1", f.Delta())
	}
	if _, f, _ := parse(t, "-delta", "0.1"); f.Delta() != 0.1 {
		t.Fatalf("-delta 0.1 parsed as %v", f.Delta())
	}
}

// TestTemplateRejects covers the bad invocations: each names the
// offending value, and the unknown-topology message lists every family
// the switch accepts.
func TestTemplateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown topology", []string{"-topology", "torus"}, `unknown topology "torus" (want dumbbell, parkinglot, or fattree)`},
		{"bad routing", []string{"-topology", "fattree", "-routing", "wormhole"}, `unknown routing policy "wormhole"`},
		{"bad placement", []string{"-topology", "fattree", "-placement", "scatter"}, `unknown placement "scatter"`},
		{"odd arity", []string{"-topology", "fattree", "-k", "5"}, "arity must be even"},
		{"incast wider than the fabric", []string{"-topology", "fattree", "-k", "2", "-placement", "incast", "-incast", "2"}, "incast of 2 flows on 2 hosts"},
		{"zero hops", []string{"-topology", "parkinglot", "-hops", "0"}, "at least 1 hop"},
		{"bad queue", []string{"-queue", "red"}, `unknown queue "red"`},
		{"bad varrate", []string{"-varrate", "sine"}, `unknown var-rate kind "sine"`},
		{"bad varrate factor", []string{"-varrate", "markov", "-varrate-factors", "1,half"}, `bad -varrate-factors entry "half"`},
		// Found by FuzzScenFlags: each of these once made a template
		// that did not build. The scenario's rules refuse them now.
		{"zero rtt", []string{"-rtt", "0"}, "non-positive MinRTT 0"},
		{"rtt that rounds to nothing", []string{"-rtt", ".0000001"}, "non-positive MinRTT 0"},
		{"rtt beyond a graph's delays", []string{"-rtt", "200000000"}, "propagation delay 100000000.000ms outside"},
		{"zero markov dwell", []string{"-varrate", "markov", "-varrate-dwell", "0"}, "positive mean dwell"},
		{"zero on time", []string{"-on", "0"}, "means are 0.000ms on"},
		{"ECN without a buffer", []string{"-ecn", "-buffer-bdp", "0"}, "ECN needs a marking gateway queue"},
		{"negative buffer", []string{"-buffer-bdp", "-1"}, "buffer of -1 bandwidth-delay products"},
		// Past what a duration holds, a flag does not convert at all.
		{"rtt past a year", []string{"-rtt", "1e300"}, "-rtt of 1e+297 s does not convert"},
		{"NaN dwell", []string{"-varrate", "markov", "-varrate-dwell", "NaN"}, "-varrate-dwell of NaN s does not convert"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parse(t, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Template error = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestTemplateDefersToScenario feeds the flag forms of rules a scenario
// enforces. Each must be refused, and by the scenario's own rule book
// (scenario.Spec.Validate, which ends in topo's graph check), never by
// a second copy of the rule in the flags.
func TestTemplateDefersToScenario(t *testing.T) {
	for _, args := range [][]string{
		{"-ecn", "-buffer-bdp", "0"},
		{"-ecn", "-ecn-threshold", "-1"},
		{"-buffer-bdp", "-1"},
		{"-buffer-bdp", "NaN"},
		{"-buffer-bdp", "+Inf"},
		{"-varrate", "onoff", "-varrate-low", "1.5"},
		{"-varrate", "onoff", "-varrate-low", "NaN"},
		{"-varrate", "onoff", "-varrate-mean-high", "0"},
		{"-varrate", "markov", "-varrate-factors", "1,-0.5"},
		{"-varrate", "markov", "-varrate-factors", "1,+Inf"},
		{"-varrate", "markov", "-varrate-factors", "1"},
		{"-rtt", "-40"},
		{"-off", "0"},
		{"-topology", "parkinglot", "-hops", "4", "-rtt", "0.000007"},
		{"-topology", "fattree", "-rtt", "0.00001"},
	} {
		_, _, err := parse(t, args...)
		if err == nil {
			t.Errorf("%q: accepted", args)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "scenario: ") && !strings.HasPrefix(msg, "topo: ") {
			t.Errorf("%q: refused by %q, not by the scenario's rules", args, msg)
		}
	}
}
