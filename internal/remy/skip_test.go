package remy

// Tests for slot skipping: a hill-climb move on whisker w cannot change
// a run in which w never fired, unless w is the reset whisker, whose
// intersend every connection start reads. The property is checked at
// the level of single runs (evalOne), then through the trainer's batch
// evaluator, the shard job decoder, the slot cache and whole trainings
// pinned to trees the trainer produced before it skipped anything.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/telemetry"
	"learnability/internal/units"
)

// randomAction draws an action anywhere in the legal bounds.
func randomAction(r *rand.Rand) remycc.Action {
	return remycc.Action{
		WindowMult: r.Float64() * remycc.MaxWindowMult,
		WindowIncr: remycc.MinWindowIncr + r.Float64()*(remycc.MaxWindowIncr-remycc.MinWindowIncr),
		Intersend:  math.Exp(math.Log(remycc.MinIntersend) + r.Float64()*math.Log(remycc.MaxIntersend/remycc.MinIntersend)),
	}
}

// mildAction draws an action near the default one, so that runs keep
// sending and visit many whiskers.
func mildAction(r *rand.Rand) remycc.Action {
	return remycc.Action{
		WindowMult: 0.7 + 0.5*r.Float64(),
		WindowIncr: -1 + 4*r.Float64(),
		Intersend:  math.Exp(math.Log(1e-4) + r.Float64()*math.Log(100)),
	}
}

// randomSplitTree grows a tree the way training does, with random
// choices: it runs the tree on a random draw of cfg, splits a random
// whisker that fired at the mean memory it saw there along a random
// enabled signal, and repeats; then it gives every whisker a random
// mild action. The whiskers so cut sit where runs go, so on a given
// run some fire and some do not.
func randomSplitTree(r *rand.Rand, cfg *Config, splits int) *remycc.Tree {
	dims := enabledDims(cfg.Mask)
	tree := remycc.NewTree()
	for i := 0; i < splits; i++ {
		var u remycc.UsageStats
		cfg.evalOne(tree, cfg.generationDraws(r.Uint64(), 0)[0], &u, new(evalScratch))
		var used []int
		for wi, c := range u.Count {
			if c > 0 {
				used = append(used, wi)
			}
		}
		if len(used) == 0 {
			break
		}
		wi := used[r.Intn(len(used))]
		if nt, ok := tree.Split(wi, u.Mean(wi), []remycc.Signal{dims[r.Intn(len(dims))]}); ok {
			tree = nt
		}
		for wi := 0; wi < tree.Len(); wi++ {
			tree = tree.WithAction(wi, mildAction(r))
		}
	}
	return tree
}

// firedSet is the fired set of one run's usage.
func firedSet(u *remycc.UsageStats) []uint64 {
	fired := make([]uint64, firedWords(len(u.Count)))
	markFired(fired, u.Count)
	return fired
}

// TestUnfiredWhiskerMovesChangeNothing is the property slot skipping
// rests on, over random split trees and scenario draws: for every
// whisker w that never fired on a run and is not the reset whisker,
// giving w any other action reproduces the run's score bit for bit and
// fires the same whiskers.
func TestUnfiredWhiskerMovesChangeNothing(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	checked := 0
	var sc evalScratch // one scratch for every run, across both configs
	for _, base := range []Config{tinyConfig(), tinyECNConfig()} {
		base.Duration = 2 * units.Second
		cfg := base.normalize()
		for trial := 0; trial < 20; trial++ {
			tree := randomSplitTree(r, &cfg, 2+r.Intn(6))
			resetW := tree.ResetWhisker()
			d := cfg.generationDraws(r.Uint64(), r.Intn(4))[0]
			var u remycc.UsageStats
			score := cfg.evalOne(tree, d, &u, &sc)
			fired := firedSet(&u)
			moved := 0
			for w := 0; w < tree.Len() && moved < 4; w++ {
				if u.Count[w] != 0 || w == resetW {
					continue
				}
				moved++
				var mu remycc.UsageStats
				got := cfg.evalOne(tree.WithAction(w, randomAction(r)), d, &mu, &sc)
				if math.Float64bits(got) != math.Float64bits(score) {
					t.Fatalf("trial %d: moving unfired whisker %d of %d moved the score %v -> %v", trial, w, tree.Len(), score, got)
				}
				if !reflect.DeepEqual(firedSet(&mu), fired) {
					t.Fatalf("trial %d: moving unfired whisker %d changed the fired set %b -> %b", trial, w, fired, firedSet(&mu))
				}
				checked++
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d unfired whiskers were moved; the property was barely exercised", checked)
	}
}

// resetTrapConfig marks every data packet — the marking threshold is
// one byte — so ecn_frac is 1 from the first ACK on, and splits at
// ecn_frac 0.5 leave the reset point (ecn_frac 0) in a whisker no ACK
// ever lands in.
func resetTrapConfig() Config {
	c := tinyECNConfig()
	c.ECNThresholdBytes = 1
	c.Duration = 2 * units.Second
	c.Replicas = 2
	return c
}

// resetTrapTree is the default tree split at ecn_frac 0.5.
func resetTrapTree(t *testing.T) *remycc.Tree {
	t.Helper()
	tree, ok := remycc.NewTree().Split(0, remycc.Vector{0, 0, 0, 1, 0.5}, []remycc.Signal{remycc.ECNFraction})
	if !ok || tree.Len() != 2 {
		t.Fatal("could not split the default tree at ecn_frac 0.5")
	}
	return tree
}

// TestResetWhiskerMovesRunEverywhere is the exception to the rule: a
// reset whisker that never fires on an ACK still paces every
// connection's start, so moving its intersend changes the score, and
// the trainer must run such moves on every replica. A trainer that
// skipped on fired sets alone would score every candidate as the
// current tree here and disagree with the full evaluation.
func TestResetWhiskerMovesRunEverywhere(t *testing.T) {
	base := resetTrapConfig()
	cfg := base.normalize()
	tree := resetTrapTree(t)
	resetW := tree.ResetWhisker()
	draws := cfg.generationDraws(4, 0)
	var sc evalScratch
	for k, d := range draws {
		var u remycc.UsageStats
		score := cfg.evalOne(tree, d, &u, &sc)
		if u.Count[resetW] != 0 || u.Count[1-resetW] == 0 {
			t.Fatalf("replica %d: fire counts %v; the reset whisker %d must never fire and the other must", k, u.Count, resetW)
		}
		slow := tree.Action(resetW)
		slow.Intersend *= 16
		if got := cfg.evalOne(tree.WithAction(resetW, slow), d, &u, &sc); got == score {
			t.Fatalf("replica %d: the reset whisker's intersend did not change the score (%v)", k, score)
		}
	}

	tr := &Trainer{Cfg: base, Seed: 4, Workers: 2}
	tr.evaluate(&cfg, tree, 0)
	if live := tr.liveReps(&cfg, resetW, resetW); live != nil {
		t.Fatalf("moves of the unfired reset whisker run only on replicas %v", live)
	}
	var cands []*remycc.Tree
	for _, a := range neighbors(tree.Action(resetW)) {
		cands = append(cands, tree.WithAction(resetW, a))
	}
	got, _ := tr.evaluateBatch(&cfg, cands, 0, -1, tr.liveReps(&cfg, resetW, resetW))
	want, _ := oracleBatch(cfg, 4, cands, 0, -1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reset-whisker candidates scored %v, full evaluation %v", got, want)
	}
}

// TestSkippedBatchMatchesFullEvaluation checks the batch evaluator
// over a replica subset: with the current tree's runs standing in for
// the replicas left out, the candidates of a move on a whisker that
// fired on only some replicas score exactly as a full evaluation
// scores them.
func TestSkippedBatchMatchesFullEvaluation(t *testing.T) {
	base := tinyConfig()
	base.Duration = 2 * units.Second
	base.Replicas = 4
	cfg := base.normalize()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		tree := randomSplitTree(r, &cfg, 4)
		resetW := tree.ResetWhisker()
		probe := &Trainer{Cfg: base, Seed: 9, Workers: 2}
		probe.evaluate(&cfg, tree, 0)
		w := 0
		for ; w < tree.Len(); w++ {
			if live := probe.liveReps(&cfg, w, resetW); w != resetW && live != nil && len(live) > 0 {
				break
			}
		}
		if w == tree.Len() {
			continue
		}
		var cands []*remycc.Tree
		for _, a := range neighbors(tree.Action(w))[:4] {
			cands = append(cands, tree.WithAction(w, a))
		}
		want, _ := oracleBatch(cfg, 9, cands, 0, -1)
		for _, disable := range []bool{false, true} {
			tr := &Trainer{Cfg: base, Seed: 9, Workers: 2, DisableEvalCache: disable}
			tr.evaluate(&cfg, tree, 0)
			live := tr.liveReps(&cfg, w, resetW)
			got, _ := tr.evaluateBatch(&cfg, cands, 0, -1, live)
			if n := tr.SlotsSkipped(); n != int64(len(cands)*(cfg.Replicas-len(live))) {
				t.Fatalf("batch on replicas %v of %d skipped %d slots", live, cfg.Replicas, n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("nocache=%v: whisker %d on replicas %v: means %v, full evaluation %v", disable, w, live, got, want)
			}
		}
		return
	}
	t.Fatal("no random tree had a whisker that fired on some replicas but not all")
}

// TestDecodeShardJobRejectsBadReplicaLists requires a worker to answer
// a malformed replica list with an error, never a panic or a silently
// wrong slot mapping.
func TestDecodeShardJobRejectsBadReplicaLists(t *testing.T) {
	cfg := tinyConfig()
	cfg.Replicas = 4
	ncfg := cfg.normalize()
	cfgJSON, err := json.Marshal(&ncfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := remycc.NewTree().MarshalBinary()
	job := func(reps []int, hi int) *shard.Job {
		return &shard.Job{
			ID: 1, Version: shard.ProtocolVersion, Seed: 1, Replicas: ncfg.Replicas, UsageFor: -1,
			SlotLo: 0, SlotHi: hi, Trees: [][]byte{tree}, Cfg: cfgJSON, Reps: reps,
		}
	}
	for _, bad := range []struct {
		name string
		reps []int
		hi   int
	}{
		{"unsorted", []int{2, 1}, 2},
		{"duplicate", []int{1, 1}, 2},
		{"negative", []int{-1, 2}, 2},
		{"out of range", []int{1, 4}, 2},
		{"slots beyond the trees", []int{0, 3}, 3},
	} {
		if _, err := decodeShardJob(job(bad.reps, bad.hi)); err == nil {
			t.Errorf("%s replica list %v: decoded without error", bad.name, bad.reps)
		}
	}
	w, err := decodeShardJob(job([]int{0, 3}, 2))
	if err != nil {
		t.Fatalf("valid replica list: %v", err)
	}
	if ti, k := w.slot(1); ti != 0 || k != 3 {
		t.Fatalf("slot 1 of replicas [0 3] maps to tree %d, replica %d", ti, k)
	}
}

// TestEvalShardJobOverReplicaSubset holds a job over a replica subset
// to the whole batch: each of its slots, fired sets and usage frames
// equals the whole batch's slot for the same tree and replica.
func TestEvalShardJobOverReplicaSubset(t *testing.T) {
	cfg := tinyConfig()
	cfg.Replicas = 3
	cfg.Duration = 2 * units.Second
	ncfg := cfg.normalize()
	const seed, usageFor = 3, 1
	trees := []*remycc.Tree{
		remycc.NewTree(),
		remycc.NewTree().WithAction(0, remycc.Action{WindowMult: 1.05, WindowIncr: 2, Intersend: 0.001}),
	}
	cfgJSON, err := json.Marshal(&ncfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := evalSlots(slotWork{
		cfg: &ncfg, cfgHash: shard.HashBytes(cfgJSON), draws: ncfg.generationDraws(seed, 0),
		trees: trees, lo: 0, hi: len(trees) * ncfg.Replicas, usageFor: usageFor, workers: 2,
	}, nil)
	enc := make([][]byte, len(trees))
	for i := range trees {
		enc[i], _ = trees[i].MarshalBinary()
	}
	reps := []int{0, 2}
	res, err := EvalShardJob(&shard.Job{
		ID: 1, Version: shard.ProtocolVersion, Seed: seed, Replicas: ncfg.Replicas, UsageFor: usageFor,
		SlotLo: 1, SlotHi: 4, Workers: 2, Trees: enc, Cfg: cfgJSON, Reps: reps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 3 {
		t.Fatalf("3 slots of 1-whisker trees returned %d fired words", len(res.Fired))
	}
	var wantUsage []shard.UsageFrame
	for s := 1; s < 4; s++ {
		ti, k := s/len(reps), reps[s%len(reps)]
		j := ti*ncfg.Replicas + k
		if res.Scores[s-1] != whole.Scores[j] || res.Fired[s-1] != whole.Fired[j] {
			t.Fatalf("slot %d (tree %d, replica %d): %v/%b, whole batch %v/%b", s, ti, k,
				res.Scores[s-1], res.Fired[s-1], whole.Scores[j], whole.Fired[j])
		}
		if ti == usageFor {
			wantUsage = append(wantUsage, whole.Usage[k])
		}
	}
	if !reflect.DeepEqual(res.Usage, wantUsage) {
		t.Fatalf("usage frames %+v, whole batch %+v", res.Usage, wantUsage)
	}
}

// TestStaleScoreOnlyEntryIsReplaced plants, in a disk cache, a slot
// entry in the score-only format written before entries carried fired
// sets. A fresh cache over that directory must count it as a miss,
// simulate the slot, and replace the entry, so the next lookup hits.
func TestStaleScoreOnlyEntryIsReplaced(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Replicas = 1
	cfg.Duration = 2 * units.Second
	ncfg := cfg.normalize()
	cfgJSON, err := json.Marshal(&ncfg)
	if err != nil {
		t.Fatal(err)
	}
	tree := remycc.NewTree()
	enc, _ := tree.MarshalBinary()
	work := slotWork{
		cfg: &ncfg, cfgHash: shard.HashBytes(cfgJSON), draws: ncfg.generationDraws(1, 0),
		trees: []*remycc.Tree{tree}, enc: [][]byte{enc}, lo: 0, hi: 1, usageFor: -1, workers: 1,
	}
	key := slotKey(work.cfgHash, work.draws[0], enc)
	want := evalSlots(work, nil)

	old, err := shardnet.NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	old.Put(key, append(binary.LittleEndian.AppendUint64(nil, math.Float64bits(12.5)), 0))

	cache, err := shardnet.NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := evalSlots(work, cache)
	if got.Cached || !reflect.DeepEqual(got.Scores, want.Scores) || !reflect.DeepEqual(got.Fired, want.Fired) {
		t.Fatalf("stale entry served: %+v, want %+v", got, want)
	}
	if st := cache.Stats(); st.DiskHits != 1 {
		t.Fatalf("the planted entry was not read from disk: %+v", st)
	}
	entry, ok := cache.Get(key)
	if !ok {
		t.Fatal("no entry after the re-evaluation")
	}
	if score, _, fired, err := decodeSlotEntry(entry); err != nil || score != want.Scores[0] || !reflect.DeepEqual(fired, want.Fired) {
		t.Fatalf("the stale entry was kept: decodes to %v, %v, %v", score, fired, err)
	}
	for _, c := range []*shardnet.Cache{cache, mustDiskCache(t, dir)} {
		if again := evalSlots(work, c); !again.Cached || !reflect.DeepEqual(again.Scores, want.Scores) {
			t.Fatalf("lookup after the replacement: %+v", again)
		}
	}
}

func mustDiskCache(t *testing.T, dir string) *shardnet.Cache {
	t.Helper()
	c, err := shardnet.NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// skipGoldens are SHA-256 digests of trees trained before the trainer
// skipped any slot, with the budget and seeds of
// TestSkipKeepsTrainedTrees.
var skipGoldens = map[string]string{
	"tiny/1": "31a3359b6f8a85af264ec32f2be5ad920b96ddc0f50e70b14dccde630e51c8a7",
	"tiny/2": "11b73503d434c5f3d13eb5c073d5b217dedda876ef9bac2e1e0e4405f7be54f9",
	"ecn/3":  "054b611d0a8c925d520ecc100c61563f1cb055aa7de463f89f22559fbc9801c4",
}

// TestSkipKeepsTrainedTrees trains three searches at a two-generation
// budget and requires each tree byte-equal to the one the trainer built
// when it evaluated every slot, slots to be skipped, and every journal
// record to account for each slot exactly once:
// slots = eval_cache_hits + eval_cache_misses + skipped_slots.
func TestSkipKeepsTrainedTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	for _, c := range []struct {
		name string
		cfg  Config
		seed uint64
	}{{"tiny", tinyConfig(), 1}, {"tiny", tinyConfig(), 2}, {"ecn", tinyECNConfig(), 3}} {
		id := fmt.Sprintf("%s/%d", c.name, c.seed)
		cfg := c.cfg
		cfg.Replicas = 3
		var journal bytes.Buffer
		tr := &Trainer{Cfg: cfg, Seed: c.seed, Workers: 2, Journal: telemetry.NewJournal(&journal)}
		tree := tr.Train(Budget{Generations: 2, OptPasses: 2, MovesPerWhisker: 2})
		b, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != skipGoldens[id] {
			t.Errorf("%s: trained tree %x, want %s", id, sum, skipGoldens[id])
		}
		if tr.SlotsSkipped() == 0 {
			t.Errorf("%s: no slot was skipped", id)
		}
		var skipped int64
		sc := bufio.NewScanner(strings.NewReader(journal.String()))
		for sc.Scan() {
			var rec GenerationRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Slots != rec.EvalCacheHits+rec.EvalCacheMisses+rec.SkippedSlots {
				t.Errorf("%s gen %d: %d slots, %d hits + %d misses + %d skipped", id, rec.Gen,
					rec.Slots, rec.EvalCacheHits, rec.EvalCacheMisses, rec.SkippedSlots)
			}
			skipped += rec.SkippedSlots
		}
		if skipped != tr.SlotsSkipped() {
			t.Errorf("%s: journal records %d skipped slots, the trainer %d", id, skipped, tr.SlotsSkipped())
		}
	}
}
