package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"learnability/internal/remy"
	"learnability/internal/units"
)

// tinyEffort trains and tests in well under a second: no structural
// generations, one optimization pass of one move, one 2 s replica on
// either side, three sweep points.
func tinyEffort() Effort {
	e := QuickEffort()
	e.TrainBudget = remy.Budget{Generations: 0, OptPasses: 1, MovesPerWhisker: 1}
	e.TrainReplicas = 1
	e.TrainDuration = 2 * units.Second
	e.TestReplicas = 1
	e.TestDuration = 2 * units.Second
	e.SweepPoints = 3
	return e
}

// TestSweepGoldens pins every byte cmd/learnability prints or writes
// for Figures 2–4. The files under testdata were rendered by the three
// per-figure implementations that runSweep replaced (commit 4f0138b),
// so the test holds the one implementation to their seeds, grids,
// labels, formats and column names.
func TestSweepGoldens(t *testing.T) {
	for _, fig := range []struct {
		id  string
		run func(Effort, func(string, ...any)) *Sweep
	}{
		{"fig2", RunLinkSpeed},
		{"fig3", RunMultiplexing},
		{"fig4", RunPropDelay},
	} {
		res := fig.run(tinyEffort(), nil)
		var csv strings.Builder
		if err := res.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		for kind, got := range map[string]string{"table": res.Table(), "csv": csv.String(), "plot": res.Plot()} {
			name := filepath.Join("testdata", fig.id+"."+kind+".golden")
			want, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from the retired implementation's output:\n%s\nwant:\n%s", name, got, want)
			}
		}
	}
}
