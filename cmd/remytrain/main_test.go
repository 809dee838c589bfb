package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"learnability/cmd/internal/scenflags"
	"learnability/internal/cc/remycc"
	"learnability/internal/units"
)

// TestScenarioFlagsMatchSharedSet parses one scenario command line
// (cmd/remyeval's test parses the same one) through this binary's real
// flag set — flag.CommandLine as package init populated it, the range,
// budget and shard flags included — and through a bare set holding
// only the shared scenario flags. Both must resolve to the same
// template: remytrain neither redeclares nor reinterprets a scenario
// flag, so the scenario remytrain trains on is the scenario remyeval
// evaluates on.
func TestScenarioFlagsMatchSharedSet(t *testing.T) {
	scenarioArgs := []string{
		"-topology", "fattree", "-k", "4", "-routing", "spray", "-placement", "incast", "-incast", "3",
		"-rtt", "20", "-on", "0.5", "-off", "0.25", "-buffer-bdp", "1", "-queue", "codel",
		"-ecn", "-ecn-threshold", "3000", "-varrate", "markov", "-varrate-factors", "1,0.5", "-varrate-dwell", "0.1",
		"-delta", "0.5",
	}
	ref := flag.NewFlagSet("shared", flag.ContinueOnError)
	shared := scenflags.Register(ref)
	if err := ref.Parse(scenarioArgs); err != nil {
		t.Fatal(err)
	}
	want, err := shared.Template()
	if err != nil {
		t.Fatal(err)
	}

	own := []string{"-speed-min", "1", "-rtt-max", "40", "-generations", "1", "-shard-timeout", "1m"}
	if err := flag.CommandLine.Parse(append(own, scenarioArgs...)); err != nil {
		t.Fatal(err)
	}
	got, err := scen.Template()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || scen.Delta() != shared.Delta() {
		t.Fatalf("remytrain's flag set resolved\n got %+v (delta %v)\nwant %+v (delta %v)", got, scen.Delta(), want, shared.Delta())
	}
}

// TestKnockoutParsesSignalNames parses -knockout's argument: every
// signal name removes exactly that signal, "" removes none, and any
// other name is an error. The flag's usage lists every name.
func TestKnockoutParsesSignalNames(t *testing.T) {
	for s := range remycc.Signal(remycc.NumSignals) {
		mask, err := knockoutMask(s.String())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if want := remycc.AllSignals().Without(s); mask != want {
			t.Fatalf("%s: mask %v, want %v", s, mask, want)
		}
		if usage := flag.Lookup("knockout").Usage; !strings.Contains(usage, s.String()) {
			t.Fatalf("-knockout usage %q does not name %s", usage, s)
		}
	}
	if mask, err := knockoutMask(""); err != nil || mask != remycc.AllSignals() {
		t.Fatalf(`knockoutMask("") = %v, %v; want every signal`, mask, err)
	}
	for _, name := range []string{"rtt", "ECN_FRAC", "signal(5)", " rec_ewma"} {
		if _, err := knockoutMask(name); err == nil {
			t.Fatalf("knockoutMask(%q) accepted an unknown signal", name)
		}
	}
}

// unconvertible are flag values that convert to no duration.
var unconvertible = []string{"1e300", "-1e300", "NaN", "+Inf", "-Inf"}

// setFlag sets a command-line flag for the rest of the test.
func setFlag(t *testing.T, name, value string) {
	t.Helper()
	old := flag.Lookup(name).Value.String()
	t.Cleanup(func() { flag.Set(name, old) })
	if err := flag.Set(name, value); err != nil {
		t.Fatal(err)
	}
}

// TestDurationFlagRefusesWhatDoesNotConvert: -duration 1e300 used to
// train the 16 s default, the float having converted to a negative
// duration. It is refused, naming the flag.
func TestDurationFlagRefusesWhatDoesNotConvert(t *testing.T) {
	for _, v := range unconvertible {
		setFlag(t, "duration", v)
		if _, _, err := durations(units.Millisecond); err == nil || !strings.Contains(err.Error(), "-duration") {
			t.Errorf("-duration %s: error %v, want one naming the flag", v, err)
		}
	}
	setFlag(t, "duration", "2.5")
	if run, _, err := durations(units.Millisecond); err != nil || run != units.DurationFromSeconds(2.5) {
		t.Fatalf("-duration 2.5 converts to %v, %v", run, err)
	}
}

// TestRTTMaxFlagRefusesWhatDoesNotConvert is the same check for
// -rtt-max, in milliseconds, which when unset takes the -rtt it is
// given.
func TestRTTMaxFlagRefusesWhatDoesNotConvert(t *testing.T) {
	for _, v := range unconvertible {
		setFlag(t, "rtt-max", v)
		if _, _, err := durations(units.Millisecond); err == nil || !strings.Contains(err.Error(), "-rtt-max") {
			t.Errorf("-rtt-max %s: error %v, want one naming the flag", v, err)
		}
	}
	for v, want := range map[string]units.Duration{"2.5": units.DurationFromSeconds(2.5e-3), "0": units.Millisecond} {
		setFlag(t, "rtt-max", v)
		if _, rttHi, err := durations(units.Millisecond); err != nil || rttHi != want {
			t.Fatalf("-rtt-max %s converts to %v, %v; want %v", v, rttHi, err, want)
		}
	}
}
