package remy

import (
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/scenario"
	"learnability/internal/units"
)

// Ablation benchmarks for the trainer's design choices: each trains
// under the same budget with one mechanism removed and reports the
// resulting objective as a metric, so the value of the mechanism is
// visible in benchmark output.

func ablationConfig() Config {
	return Config{
		Topology:     scenario.Dumbbell,
		LinkSpeedMin: 10 * units.Mbps,
		LinkSpeedMax: 40 * units.Mbps,
		MinRTTMin:    150 * units.Millisecond,
		MinRTTMax:    150 * units.Millisecond,
		SendersMin:   2,
		SendersMax:   2,
		MeanOn:       units.Second,
		MeanOff:      units.Second,
		Buffering:    scenario.FiniteDropTail,
		BufferBDP:    5,
		Delta:        1,
		Mask:         remycc.AllSignals(),
		Duration:     8 * units.Second,
		Replicas:     2,
	}
}

func ablationBudget() Budget {
	return Budget{Generations: 2, OptPasses: 1, MovesPerWhisker: 4}
}

// trainAndScore trains under cfg and scores the result on the same
// evaluation draws as the default configuration, so scores are
// comparable across ablations.
func trainAndScore(b *testing.B, cfg Config) float64 {
	tr := &Trainer{Cfg: cfg, Seed: 99}
	tree := tr.Train(ablationBudget())
	scorer := &Trainer{Cfg: ablationConfig(), Seed: 99}
	scoreCfg := scorer.Cfg.normalize()
	score, _ := scorer.evaluate(&scoreCfg, tree, 1000)
	return score
}

// BenchmarkAblationSplitAtMean compares Remy's adaptive split point
// (the mean observed memory) against naive midpoint splitting.
func BenchmarkAblationSplitAtMean(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := trainAndScore(b, ablationConfig())
		mid := ablationConfig()
		mid.SplitAtMidpoint = true
		midScore := trainAndScore(b, mid)
		b.ReportMetric(base, "objective-split-at-mean")
		b.ReportMetric(midScore, "objective-split-at-midpoint")
		b.ReportMetric(base-midScore, "value-of-adaptive-split")
	}
}

// BenchmarkAblationPacing compares the full action triplet (§3.5)
// against a window-only action space.
func BenchmarkAblationPacing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := trainAndScore(b, ablationConfig())
		nop := ablationConfig()
		nop.DisablePacing = true
		nopScore := trainAndScore(b, nop)
		b.ReportMetric(base, "objective-with-pacing")
		b.ReportMetric(nopScore, "objective-window-only")
		b.ReportMetric(base-nopScore, "value-of-pacing")
	}
}

// BenchmarkEvaluate measures the cost of one candidate evaluation
// (Replicas simulations) — the trainer's inner loop.
func BenchmarkEvaluate(b *testing.B) {
	tr := &Trainer{Cfg: ablationConfig(), Seed: 1}
	cfg := tr.Cfg.normalize()
	tree := remycc.NewTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.evaluate(&cfg, tree, i)
	}
}
