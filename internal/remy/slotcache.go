package remy

// The slot memo's key and entry formats, and the worker side of
// sharded training: decoding a job back into the slot range it
// describes (decodeShardJob) and the evaluators built on that —
// EvalShardJob, and CachedShardEval with its whole-job replay tier.
// The cacheable unit is one evaluation *slot* — (config, scenario
// draw, candidate tree) — rather than a whole job, so a hit does not
// require an identical slot range: any re-evaluation of the same tree
// under the same draw and config is served from the stored bits,
// wherever the coordinator's job boundaries fall. A slot's score is a
// pure function of the keyed inputs, so cached results preserve
// byte-identical training output by construction; the differential
// tests hold warm-cache reruns byte-equal.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
)

// slotKey is the content address of one evaluation slot. The draw is
// fingerprinted field-by-field in a fixed-width little-endian layout
// (floats as IEEE-754 bits, the scenario RNG by its state word, which
// rng.Stream.State documents as a canonical digest of its seed and
// split path) rather than by hashing the job: two jobs slicing the
// same generation differently, or two coordinators shipping the same
// config, produce identical keys for identical slots.
func slotKey(cfgHash shard.Hash, d draw, tree []byte) shardnet.Key {
	h := sha256.New()
	h.Write(cfgHash[:])
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(math.Float64bits(float64(d.linkSpeed)))
	put(uint64(len(d.linkSpeeds)))
	for _, r := range d.linkSpeeds {
		put(math.Float64bits(float64(r)))
	}
	put(uint64(d.minRTT))
	put(uint64(d.nTrainee))
	put(uint64(d.nAIMD))
	put(uint64(d.nOther))
	put(d.seed.State())
	h.Write(tree)
	var k shardnet.Key
	h.Sum(k[:0])
	return k
}

// Slot-entry flags: the byte after the score says what follows it.
const (
	// entryUsage is followed by the whisker-usage accumulator, from
	// which the fired set is derived.
	entryUsage = 1
	// entryFired is followed by the fired set alone.
	entryFired = 2
)

// encodeSlotEntry renders one slot's result for the cache: the score's
// IEEE-754 bits, then a flag byte and either — for slots evaluated
// under a usage query — the whisker-usage accumulator, or the slot's
// fired set. Usage is stored only when asked for because it dominates
// entry size and most slots never need it; a usage-needing lookup that
// finds a usage-less entry simply misses and re-evaluates.
func encodeSlotEntry(score float64, u *remycc.UsageStats, fired []uint64) []byte {
	size := 8 + 1 + 4 + 8*len(fired)
	if u != nil {
		size = 8 + 1 + 4 + 8*len(u.Count)*(1+remycc.NumSignals)
	}
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, size), math.Float64bits(score))
	if u == nil {
		b = append(b, entryFired)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(fired)))
		for _, word := range fired {
			b = binary.LittleEndian.AppendUint64(b, word)
		}
		return b
	}
	b = append(b, entryUsage)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(u.Count)))
	for _, n := range u.Count {
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	for _, row := range u.Sum {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// decodeSlotEntry parses encodeSlotEntry's layout: the score and
// either the usage (fired nil; the caller derives the fired set from
// its counts) or the fired set (usage nil). Errors — a truncated or
// corrupt entry, or an unknown flag — are misses to the caller, whose
// fresh result replaces the entry.
func decodeSlotEntry(b []byte) (score float64, u *remycc.UsageStats, fired []uint64, err error) {
	if len(b) < 9 {
		return 0, nil, nil, fmt.Errorf("remy: slot entry of %d bytes", len(b))
	}
	score = math.Float64frombits(binary.LittleEndian.Uint64(b))
	flag, rest := b[8], b[9:]
	if flag != entryUsage && flag != entryFired {
		return 0, nil, nil, fmt.Errorf("remy: bad slot-entry flag %d", flag)
	}
	if len(rest) < 4 {
		return 0, nil, nil, fmt.Errorf("remy: truncated slot-entry header")
	}
	n := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if flag == entryFired {
		if len(rest) != 8*n {
			return 0, nil, nil, fmt.Errorf("remy: slot-entry fired set of %d bytes for %d words", len(rest), n)
		}
		fired = make([]uint64, n)
		for j := range fired {
			fired[j] = binary.LittleEndian.Uint64(rest[8*j:])
		}
		return score, nil, fired, nil
	}
	if len(rest) != n*8*(1+remycc.NumSignals) {
		return 0, nil, nil, fmt.Errorf("remy: slot-entry usage of %d bytes for %d whiskers", len(rest), n)
	}
	u = &remycc.UsageStats{
		Count: make([]int64, n),
		Sum:   make([][remycc.NumSignals]float64, n),
	}
	for j := range u.Count {
		u.Count[j] = int64(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	}
	for j := range u.Sum {
		for d := 0; d < remycc.NumSignals; d++ {
			u.Sum[j][d] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
		}
	}
	return score, u, nil, nil
}

// entryFits reports whether a decoded entry is sized for tree: usage
// for every whisker, or a fired set of the tree's length. An entry that
// does not fit is a miss, unreachable short of an encoder bug, since
// the slot key holds the tree's bytes.
func entryFits(tree *remycc.Tree, u *remycc.UsageStats, fired []uint64) bool {
	if u != nil {
		return len(u.Count) == tree.Len()
	}
	return len(fired) == firedWords(tree.Len())
}

// cfgDecodeMemo memoizes config decoding by content hash: every job of
// a training run carries the same blob (or just its hash), and
// json.Unmarshal of a topology-bearing config is far from free on the
// per-job path. One trainer ships one config, so the bound matters
// only for a daemon serving many coordinators.
var cfgDecodeMemo = fifoMemo[shard.Hash, *Config]{max: 16}

// decodeShardConfig returns the job's normalized training config and
// its content hash, memoized by that hash so only the first job of a
// run pays the JSON decode. A config that fails Validate is an error
// (the simulator would panic on it) and is not memoized.
func decodeShardConfig(job *shard.Job) (*Config, shard.Hash, error) {
	h := job.CfgHash
	if h.IsZero() {
		h = shard.HashBytes(job.Cfg)
	}
	if cfg, ok := cfgDecodeMemo.get(h); ok {
		return cfg, h, nil
	}
	var decoded Config
	if err := json.Unmarshal(job.Cfg, &decoded); err != nil {
		return nil, h, fmt.Errorf("remy: decode shard config: %w", err)
	}
	if err := decoded.Validate(); err != nil {
		return nil, h, fmt.Errorf("remy: invalid shard config: %w", err)
	}
	decoded = decoded.normalize()
	return cfgDecodeMemo.add(h, &decoded), h, nil
}

// decodeShardJob validates a job and decodes it into the slot range it
// describes: the config (memoized, with its content hash), the
// replicas it runs on, the candidate trees, and the generation's
// scenario draws, re-derived from the job's Seed and Gen (splittable
// RNG: same splits, same draws) once per (config, seed, generation).
func decodeShardJob(job *shard.Job) (slotWork, error) {
	cfg, cfgHash, err := decodeShardConfig(job)
	if err != nil {
		return slotWork{}, err
	}
	if job.Replicas != cfg.Replicas {
		return slotWork{}, fmt.Errorf("remy: job says %d replicas, config %d", job.Replicas, cfg.Replicas)
	}
	for i, k := range job.Reps {
		if k < 0 || k >= cfg.Replicas || (i > 0 && k <= job.Reps[i-1]) {
			return slotWork{}, fmt.Errorf("remy: replica list %v is not strictly ascending in [0,%d)", job.Reps, cfg.Replicas)
		}
	}
	nr := cfg.Replicas
	if len(job.Reps) > 0 {
		nr = len(job.Reps)
	}
	if job.SlotLo < 0 || job.SlotLo >= job.SlotHi {
		return slotWork{}, fmt.Errorf("remy: bad slot range [%d,%d)", job.SlotLo, job.SlotHi)
	}
	if job.TreeLo < 0 || job.SlotLo/nr < job.TreeLo ||
		(job.SlotHi-1)/nr >= job.TreeLo+len(job.Trees) {
		return slotWork{}, fmt.Errorf("remy: slot range [%d,%d) outside trees [%d,%d)",
			job.SlotLo, job.SlotHi, job.TreeLo, job.TreeLo+len(job.Trees))
	}
	trees := make([]*remycc.Tree, len(job.Trees))
	for i, data := range job.Trees {
		tree, err := remycc.DecodeTree(data)
		if err != nil {
			return slotWork{}, fmt.Errorf("remy: decode candidate tree %d: %w", job.TreeLo+i, err)
		}
		trees[i] = tree
	}
	return slotWork{
		cfg: cfg, cfgHash: cfgHash, draws: drawsFor(cfgHash, job.Seed, job.Gen, cfg), reps: job.Reps,
		treeLo: job.TreeLo, trees: trees, enc: job.Trees, lo: job.SlotLo, hi: job.SlotHi,
		usageFor: job.UsageFor, workers: job.Workers,
	}, nil
}

// EvalShardJob evaluates one shard job without any cache: decode it,
// score its slot range. It is the reference the cached evaluator is
// tested against, and what CachedShardEval degrades to without a
// cache.
func EvalShardJob(job *shard.Job) (*shard.Result, error) {
	w, err := decodeShardJob(job)
	if err != nil {
		return nil, err
	}
	return evalSlots(w, nil), nil
}

// jobKey is the whole-job replay address: the job re-encoded in the
// binary codec with ID and Workers zeroed (the two fields that vary
// between identical evaluations and provably cannot affect scores) and
// the config normalized to its hash, so an inline-config job and its
// hash-only repeat share an address. shard.HashJob streams the
// encoding into the hasher, so no copy of the job is built.
func jobKey(job *shard.Job) shardnet.Key {
	j := *job
	j.ID = 0
	j.Workers = 0
	j.Cfg = nil
	if j.CfgHash.IsZero() {
		j.CfgHash = shard.HashBytes(job.Cfg)
	}
	return shardnet.Key(shard.HashJob(&j))
}

// CachedShardEval is the worker-side evaluator: EvalShardJob's decode
// and slot evaluation behind a two-tier content-addressed cache. The
// replay tier answers an exact repeat (same slot range, trees, config,
// seed — a warm rerun of the same training) from the stored result
// bytes without decoding the job at all. The slot tier (evalSlots)
// looks each slot up independently, so a repeat sliced differently —
// another lane count, a requeued job — still skips every
// simulation it has seen; fresh results feed both tiers.
// Result.Cached is set only when the whole job was served from cache,
// which is what Server.Stats().CacheHits counts. A nil cache returns
// the plain evaluator.
func CachedShardEval(c *shardnet.Cache) shard.Eval {
	if c == nil {
		return EvalShardJob
	}
	return func(job *shard.Job) (*shard.Result, error) {
		jk := jobKey(job)
		if b, ok := c.Get(jk); ok {
			if res, err := shard.DecodeResult(b); err == nil {
				res.ID = job.ID
				res.Cached = true
				return res, nil
			}
			// An undecodable entry is as good as poisoned; fall
			// through to the slot tier.
		}
		w, err := decodeShardJob(job)
		if err != nil {
			return nil, err
		}
		res := evalSlots(w, c)
		stored := *res
		stored.Cached = false
		if b, err := shard.EncodeResult(&stored, true); err == nil {
			c.Put(jk, b)
		}
		return res, nil
	}
}
