package core

import (
	"io"
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

// rendered is what cmd/learnability prints or writes for one result.
type rendered interface {
	Table() string
	WriteCSV(io.Writer) error
	Plot() string
}

// TestSweepGoldens pins every byte cmd/learnability prints or writes
// for Figures 2–4 and Figure 8. The sweep files under testdata were
// rendered by the three per-figure implementations that runSweep
// replaced (commit 4f0138b), the fig8 files by the hand-wired queue
// sampler and drop recorder that the packet-event stream replaced
// (commit e1b2419), so the test holds the one implementation to their
// seeds, grids, labels, formats and column names.
func TestSweepGoldens(t *testing.T) {
	sweep := func(run func(Effort, func(string, ...any)) *Sweep) func(Effort) rendered {
		return func(e Effort) rendered { return run(e, nil) }
	}
	for _, fig := range []struct {
		id  string
		run func(Effort) rendered
	}{
		{"fig2", sweep(RunLinkSpeed)},
		{"fig3", sweep(RunMultiplexing)},
		{"fig4", sweep(RunPropDelay)},
		{"fig8", func(e Effort) rendered { return RunTimeDomain(e, nil) }},
	} {
		res := fig.run(tinyEffort())
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
