package remy

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/telemetry"
)

// alwaysRefreshTrain runs Train's search the way it ran before Train
// skipped usage refreshes: every optimization pass ends with a refresh,
// whose score becomes the pass's. It requires that score to equal the
// one the pass ended with, bit for bit, and a pass to have moved the
// tree exactly when it raised the score by more than
// improvementEpsilon. It returns the trained tree, how many of its
// refreshes Train leaves out — those after a pass that moved nothing,
// and the last generation's last one — and how many passes moved
// nothing. With tr.Remotes set it searches through a shard pool, as
// Train would.
func alwaysRefreshTrain(t *testing.T, tr *Trainer, b Budget) (tree *remycc.Tree, dropped, idle int) {
	t.Helper()
	norm := tr.Cfg.normalize()
	cfg := &norm
	tr.cfgJSON, tr.cfgHash = tr.cfgID(cfg)
	if len(tr.Remotes) > 0 {
		defer tr.startShards()()
	}
	tree = remycc.NewTree()
	for gen := 0; ; gen++ {
		score, usage := tr.evaluate(cfg, tree, gen)
		resetW := tree.ResetWhisker()
		for pass := 0; pass < b.OptPasses; pass++ {
			before, start := score, tree
			for _, wi := range usageOrder(usage) {
				tree, score = tr.optimizeWhisker(cfg, tree, wi, resetW, score, gen, b.MovesPerWhisker)
			}
			refreshed, u := tr.evaluate(cfg, tree, gen)
			if math.Float64bits(refreshed) != math.Float64bits(score) {
				t.Fatalf("gen %d pass %d: the refresh scores %v, the pass ended at %v", gen, pass, refreshed, score)
			}
			moved := tree != start
			if moved != (refreshed > before+improvementEpsilon) {
				t.Fatalf("gen %d pass %d: moved %v, but the score went %v -> %v", gen, pass, moved, before, refreshed)
			}
			if !moved {
				idle++
			}
			if !moved || gen == b.Generations && pass == b.OptPasses-1 {
				dropped++
			}
			score, usage = refreshed, u
			if !moved {
				break
			}
		}
		if gen >= b.Generations {
			break
		}
		wi := usage.MostUsed()
		if wi < 0 {
			break
		}
		nt, ok := tree.Split(wi, usage.Mean(wi), enabledDims(cfg.Mask))
		if !ok {
			break
		}
		tree = nt
	}
	return tree, dropped, idle
}

// refreshGoldens are SHA-256 digests of trees trained while every
// optimization pass still ended with a usage refresh: seed 1,
// tinyConfig on three replicas. At the third budget a pass moves
// nothing, and ends its generation's passes.
var refreshGoldens = []struct {
	budget Budget
	digest string
}{
	{Budget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2}, "fb1554b90ac237e4e8d686d1065cfee32c6c2f08e10e56a019f5b9a041a923b7"},
	{Budget{Generations: 2, OptPasses: 2, MovesPerWhisker: 3}, "f9c065ec89c1c8fe63088f9216fe71c573a00dc801021802c87ce19cfdf6ee14"},
	{Budget{Generations: 1, OptPasses: 4, MovesPerWhisker: 6}, "6a32d9c701db54143129451e9fba7e853b91c42bb2b53a201ef634a23033b166"},
}

// TestTrainRefreshesUsageOnlyWhereRead trains in process and through
// one loopback worker at three budgets and holds Train's refresh rule: a
// pass that moved nothing, and the last generation's last pass, end
// without re-evaluating the tree. The trees must be the ones the
// always-refresh search trains (and its committed digests); the final
// journal score must be, bit for bit, what a fresh evaluation of the
// returned tree scores; and the search must send exactly the jobs and
// slots of the always-refresh search less the refreshes the rule drops
// — counted by the worker's evaluator and by the journal.
func TestTrainRefreshesUsageOnlyWhereRead(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	digest := func(tree *remycc.Tree) string {
		b, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	cfg := tinyConfig()
	cfg.Replicas = 3
	norm := cfg.normalize()
	idle := 0
	for _, c := range refreshGoldens {
		budget, golden := c.budget, c.digest
		// One lane: a job per batch that evaluates any slot.
		var jobs atomic.Int64
		addr := startTCPWorker(t, &shardnet.Server{Eval: func(job *shard.Job) (*shard.Result, error) {
			jobs.Add(1)
			return EvalShardJob(job)
		}})
		oracle := &Trainer{Cfg: cfg, Seed: 1, Workers: 2, Remotes: []string{addr}, ShardWorkers: 2}
		want, dropped, idled := alwaysRefreshTrain(t, oracle, budget)
		idle += idled
		if got := digest(want); got != golden {
			t.Fatalf("%+v: the always-refresh search trains %s, want %s", budget, got, golden)
		}
		if dropped == 0 {
			t.Fatalf("%+v: the rule drops no refresh", budget)
		}
		wantSlots := oracle.SlotsEvaluated() - int64(dropped*cfg.Replicas)
		wantJobs := jobs.Load() - int64(dropped)

		for _, remote := range []bool{false, true} {
			jobs.Store(0)
			var journal bytes.Buffer
			tr := &Trainer{Cfg: cfg, Seed: 1, Workers: 2, Journal: telemetry.NewJournal(&journal)}
			if remote {
				tr.Remotes, tr.ShardWorkers = []string{addr}, 2
			}
			tree := tr.Train(budget)
			if got := digest(tree); got != golden {
				t.Errorf("%+v remote %v: trained %s, want %s", budget, remote, got, golden)
			}
			var last GenerationRecord
			var slots int64
			sc := bufio.NewScanner(strings.NewReader(journal.String()))
			for sc.Scan() {
				if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
					t.Fatal(err)
				}
				slots += last.Slots
			}
			fresh, _ := (&Trainer{Cfg: cfg, Seed: 1, Workers: 2}).evaluate(&norm, tree, last.Gen)
			if math.Float64bits(last.Score) != math.Float64bits(fresh) {
				t.Errorf("%+v remote %v: the journal's final score %v, a fresh evaluation %v", budget, remote, last.Score, fresh)
			}
			if slots != wantSlots || tr.SlotsEvaluated() != wantSlots {
				t.Errorf("%+v remote %v: %d slots journaled, %d requested; want %d (%d less %d refreshes of %d)",
					budget, remote, slots, tr.SlotsEvaluated(), wantSlots, oracle.SlotsEvaluated(), dropped, cfg.Replicas)
			}
			if remote && jobs.Load() != wantJobs {
				t.Errorf("%+v: the worker served %d jobs, want %d (%d less %d refreshes)",
					budget, jobs.Load(), wantJobs, wantJobs+int64(dropped), dropped)
			}
		}
	}
	if idle == 0 {
		t.Fatal("no pass moved nothing: the rule's first case went untested")
	}
}
