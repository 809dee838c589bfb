package main

import (
	"flag"
	"reflect"
	"testing"

	"learnability/cmd/internal/scenflags"
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
