package remy

import (
	"fmt"
	"reflect"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/units"
)

// oracleBatch is the naive serial evaluation evaluateBatch must equal
// bit for bit: every tree on every draw, one at a time, then the mean.
// It shares only generationDraws and evalOne with the production path.
func oracleBatch(cfg Config, seed uint64, trees []*remycc.Tree, gen, usageFor int) ([]float64, *remycc.UsageStats) {
	draws := cfg.generationDraws(seed, gen)
	means := make([]float64, len(trees))
	var usage *remycc.UsageStats
	for ti, tree := range trees {
		total := 0.0
		for _, d := range draws {
			var u remycc.UsageStats
			total += cfg.evalOne(tree, d, &u, new(evalScratch))
			if ti == usageFor {
				if usage == nil {
					usage = remycc.NewUsageStats(tree.Len())
				}
				usage.Merge(&u)
			}
		}
		means[ti] = total / float64(len(draws))
	}
	return means, usage
}

// TestEvaluateBatchMatchesSerialOracle replaces what "three evaluators
// agree" used to prove: the one production path — cache on or off,
// with or without a usage query, serial or fanned out, cold or served
// from its own cache — equals the naive loop.
func TestEvaluateBatchMatchesSerialOracle(t *testing.T) {
	base := tinyConfig()
	base.Replicas = 2
	base.Duration = 2 * units.Second
	cfg := base.normalize()
	const seed, gen = 5, 1
	trees := []*remycc.Tree{
		remycc.NewTree(),
		remycc.NewTree().WithAction(0, remycc.Action{WindowMult: 1.05, WindowIncr: 2, Intersend: 0.001}),
		remycc.NewTree().WithAction(0, remycc.Action{WindowMult: 0.9, WindowIncr: 1, Intersend: 0.002}),
	}
	for _, usageFor := range []int{-1, 1} {
		wantMeans, wantUsage := oracleBatch(cfg, seed, trees, gen, usageFor)
		if wantMeans[0] == wantMeans[1] || (usageFor >= 0 && wantUsage.MostUsed() < 0) {
			t.Fatalf("oracle is degenerate (means %v, usage %+v); the comparison would be vacuous", wantMeans, wantUsage)
		}
		for _, disable := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("usageFor=%d/nocache=%v/workers=%d", usageFor, disable, workers), func(t *testing.T) {
					tr := &Trainer{Cfg: base, Seed: seed, Workers: workers, DisableEvalCache: disable}
					// The second pass is served from the cache the first
					// filled (when there is one).
					for pass := 0; pass < 2; pass++ {
						means, usage := tr.evaluateBatch(&cfg, trees, gen, usageFor, nil)
						if !reflect.DeepEqual(means, wantMeans) {
							t.Fatalf("pass %d: means %v, oracle %v", pass, means, wantMeans)
						}
						if !reflect.DeepEqual(usage, wantUsage) {
							t.Fatalf("pass %d: usage %+v, oracle %+v", pass, usage, wantUsage)
						}
					}
				})
			}
		}
	}
}
