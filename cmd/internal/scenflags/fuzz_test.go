package scenflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"learnability/internal/scenario"
)

// fuzzMaxFlows and fuzzMaxHops cap the scenarios FuzzScenFlags builds,
// as FuzzTopologyJSON caps the topologies it runs: a thousand-hop
// parking lot or a k=64 fat tree is a cost question, not a crash.
const (
	fuzzMaxFlows = 64
	fuzzMaxHops  = 64
)

// FuzzScenFlags feeds argument vectors — the fuzz input split at NUL
// bytes — through the shared scenario flag set: Register, Parse,
// Template. No vector may panic, and every vector Template accepts must
// build (scenario.Build) once complete fills in the fields a binary
// sweeps itself, under a size cap. Template validates that completed
// spec, so the size cap is applied to the topology before it does.
func FuzzScenFlags(f *testing.F) {
	for _, args := range [][]string{
		{},
		{"-topology", "parkinglot", "-hops", "3", "-cross=false"},
		{"-topology", "fattree", "-k", "4", "-routing", "spray", "-placement", "incast", "-incast", "5"},
		{"-topology", "fat-tree", "-placement", "alltoall", "-k", "2"},
		{"-queue", "sfqcodel", "-ecn", "-buffer-bdp", "0.5"},
		{"-queue", "droptail", "-ecn", "-ecn-threshold", "3000"},
		{"-buffer-bdp", "0", "-queue", "codel"},
		{"-varrate", "markov", "-varrate-factors", "1, 0.5,,0.25", "-varrate-dwell", "0.2"},
		{"-varrate", "onoff", "-varrate-low", "0.1", "-varrate-mean-high", "2", "-varrate-mean-low", "0.5"},
		{"-rtt", "40", "-on", "0.5", "-off", "2", "-delta", "0.1"},
		{"-topology", "ring"},
		{"-rtt"},
	} {
		f.Add(strings.Join(args, "\x00"))
	}
	f.Fuzz(func(t *testing.T, in string) {
		var args []string
		if in != "" {
			args = strings.Split(in, "\x00")
		}
		fs := flag.NewFlagSet("scenflags", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fl := Register(fs)
		if fs.Parse(args) != nil {
			return
		}
		if top, err := fl.topologyOf(); err == nil &&
			(top.FlowCount(2) > fuzzMaxFlows || top.Hops > fuzzMaxHops || top.FatTreeK > 4) {
			return
		}
		tmpl, err := fl.Template()
		if err != nil {
			return
		}
		if _, _, err := scenario.Build(complete(tmpl)); err != nil {
			t.Fatalf("accepted arguments %q do not build: %v", args, err)
		}
	})
}
