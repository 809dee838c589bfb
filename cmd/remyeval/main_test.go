package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"learnability/cmd/internal/scenflags"
	"learnability/internal/units"
)

// TestScenarioFlagsMatchSharedSet parses one scenario command line
// (cmd/remytrain's test parses the same one) through this binary's real
// flag set — flag.CommandLine as package init populated it, the sweep
// and trace flags included — and through a bare set holding only the
// shared scenario flags. Both must resolve to the same template:
// remyeval neither redeclares nor reinterprets a scenario flag, so the
// scenario remytrain trained on is the scenario remyeval evaluates on.
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

	own := []string{"-tree", "tao.json", "-points", "1", "-senders", "3", "-trace-flows", "0"}
	if err := flag.CommandLine.Parse(append(own, scenarioArgs...)); err != nil {
		t.Fatal(err)
	}
	got, err := scen.Template()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || scen.Delta() != shared.Delta() {
		t.Fatalf("remyeval's flag set resolved\n got %+v (delta %v)\nwant %+v (delta %v)", got, scen.Delta(), want, shared.Delta())
	}
}

// TestDurationFlagRefusesWhatDoesNotConvert: -duration 1e300 used to
// reach the scenario as a negative duration. It is refused, naming the
// flag, and an in-range value lasts every run.
func TestDurationFlagRefusesWhatDoesNotConvert(t *testing.T) {
	old := flag.Lookup("duration").Value.String()
	defer flag.Set("duration", old)
	for _, v := range []string{"1e300", "-1e300", "NaN", "+Inf", "-Inf"} {
		if err := flag.Set("duration", v); err != nil {
			t.Fatal(err)
		}
		if _, err := runTemplate(); err == nil || !strings.Contains(err.Error(), "-duration") {
			t.Errorf("-duration %s: error %v, want one naming the flag", v, err)
		}
	}
	if err := flag.Set("duration", "2.5"); err != nil {
		t.Fatal(err)
	}
	if tmpl, err := runTemplate(); err != nil || tmpl.Duration != units.DurationFromSeconds(2.5) {
		t.Fatalf("-duration 2.5 gives a template lasting %v, %v", tmpl.Duration, err)
	}
}
