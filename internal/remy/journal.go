package remy

// The trainer's telemetry layer: one JSONL GenerationRecord per
// whisker-split round, plus live gauges on the metrics registry. Both
// are pure observers — they read counters and scores after the
// generation's float work is done and never touch a random stream —
// so a journaled training run produces the byte-identical tree of an
// unjournaled one (the telemetry differential tests pin this).

import (
	"strings"
	"time"

	"learnability/internal/telemetry"
)

// GenerationRecord is one journal line: the shape of one generation of
// the evaluate/optimize/split loop, with every cache and fabric
// counter expressed as a delta over the generation (lane records are
// cumulative — see LaneRecord).
type GenerationRecord struct {
	// Gen is the generation index.
	Gen int `json:"gen"`
	// WallMillis is the generation's wall-clock time.
	WallMillis float64 `json:"wall_ms"`
	// Score is the tree's objective after the generation's optimization
	// passes (before any split).
	Score float64 `json:"score"`
	// ScoreDelta is the improvement over the previous generation's
	// score; zero on generation 0.
	ScoreDelta float64 `json:"score_delta"`
	// Whiskers is the tree size at the end of the generation (after the
	// split, when one happened).
	Whiskers int `json:"whiskers"`
	// SplitWhisker is the whisker index that was split this generation,
	// or -1 when the generation ended without a split (budget reached,
	// no usage, or a degenerate split).
	SplitWhisker int `json:"split_whisker"`
	// Note explains a stop without a split: "no-usage" or
	// "split-degenerate"; empty otherwise.
	Note string `json:"note,omitempty"`
	// Slots is the number of (tree x replica) evaluation slots the
	// generation requested (cache hits and skipped slots included).
	Slots int64 `json:"slots"`
	// SkippedSlots is how many of those slots hill-climb batches took
	// from the current tree's run instead of looking them up or
	// simulating them: in process, Slots = EvalCacheHits +
	// EvalCacheMisses + SkippedSlots.
	SkippedSlots int64 `json:"skipped_slots"`
	// EvalCacheHits is the in-process slot cache's hit delta this
	// generation (zero when the cache is disabled).
	EvalCacheHits int64 `json:"eval_cache_hits"`
	// EvalCacheMisses is the slot cache's miss delta this generation.
	EvalCacheMisses int64 `json:"eval_cache_misses"`
	// EvalCacheDiskHits is how many of the hits were served from the
	// disk tier this generation.
	EvalCacheDiskHits int64 `json:"eval_cache_disk_hits"`
	// ShardResults is the sharded path's merged-result delta this
	// generation (zero in-process).
	ShardResults int64 `json:"shard_results"`
	// ShardCacheHits is how many of those results the workers answered
	// from their caches this generation.
	ShardCacheHits int64 `json:"shard_cache_hits"`
	// DrawMemoHits is the derive-once draw memo's hit delta this
	// generation.
	DrawMemoHits int64 `json:"draw_memo_hits"`
	// DrawMemoMisses is the memo's miss delta (a miss is one full
	// generationDraws derivation).
	DrawMemoMisses int64 `json:"draw_memo_misses"`
	// Lanes snapshots the shard pool's per-lane fabric counters,
	// cumulative since the pool started (histogram quantiles cannot be
	// differenced, so the whole record stays cumulative for
	// consistency). Present only when sharding with Metrics set.
	Lanes []LaneRecord `json:"lanes,omitempty"`
}

// LaneRecord is one shard lane's cumulative fabric counters, folded
// out of the metrics registry's shard_lane_* series.
type LaneRecord struct {
	// Lane is the lane label, "index:address" (e.g.
	// "0:127.0.0.1:7118", "1:w2:7117").
	Lane string `json:"lane"`
	// Jobs is the number of jobs the lane delivered, whether over its
	// transport or via in-process fallback.
	Jobs int64 `json:"jobs"`
	// Requeues counts jobs taken back from the lane after a failure.
	Requeues int64 `json:"requeues"`
	// Refetches counts NeedCfg config resends.
	Refetches int64 `json:"cfg_refetches"`
	// Reconnects counts transport reconnect attempts.
	Reconnects int64 `json:"reconnects"`
	// Fallbacks counts jobs the lane gave up to in-process evaluation.
	Fallbacks int64 `json:"fallbacks"`
	// P50Millis is the lane's median job round-trip latency.
	P50Millis float64 `json:"job_p50_ms"`
	// P90Millis is the lane's 90th-percentile job latency.
	P90Millis float64 `json:"job_p90_ms"`
	// P99Millis is the lane's 99th-percentile job latency.
	P99Millis float64 `json:"job_p99_ms"`
}

// genSnapshot freezes every per-generation counter at generation
// start, so emitGeneration can report deltas.
type genSnapshot struct {
	evalHits, evalMisses, evalDiskHits uint64
	shardResults, shardCacheHits       uint64
	drawHits, drawMisses               int64
	slots, skipped                     int64
}

// counterSnapshot captures the current counter values (Train
// goroutine; the atomics may be racing lane goroutines, which is fine
// — deltas of monotone counters only ever under- or over-attribute a
// slot to a neighboring generation by an in-flight margin of error).
func (t *Trainer) counterSnapshot() genSnapshot {
	var s genSnapshot
	cs := t.LocalCacheStats()
	s.evalHits, s.evalMisses, s.evalDiskHits = cs.Hits, cs.Misses, cs.DiskHits
	s.shardResults, s.shardCacheHits = t.shardResults, t.shardCacheHits
	s.drawHits, s.drawMisses = DrawMemoStats()
	s.slots = t.slotsEvaluated.Load()
	s.skipped = t.slotsSkipped.Load()
	return s
}

// registerTrainerMetrics publishes the trainer's always-on series on
// the registry: polled totals that an HTTP scrape may read from
// another goroutine (hence the atomic slot counter and the
// mutex-guarded cache stats), plus gauges updated per generation.
func (t *Trainer) registerTrainerMetrics() {
	if t.Metrics == nil {
		return
	}
	t.Metrics.Func("remy_slots_evaluated_total", func() float64 {
		return float64(t.slotsEvaluated.Load())
	})
	t.Metrics.Func("remy_eval_cache_hits_total", func() float64 {
		return float64(t.LocalCacheStats().Hits)
	})
	t.Metrics.Func("remy_eval_cache_misses_total", func() float64 {
		return float64(t.LocalCacheStats().Misses)
	})
	t.Metrics.Func("remy_eval_cache_entries", func() float64 {
		return float64(t.LocalCacheStats().Entries)
	})
	t.Metrics.Func("remy_draw_memo_hits_total", func() float64 {
		h, _ := DrawMemoStats()
		return float64(h)
	})
	t.Metrics.Func("remy_draw_memo_misses_total", func() float64 {
		_, m := DrawMemoStats()
		return float64(m)
	})
}

// emitGeneration writes one generation's record to the journal and
// refreshes the registry gauges. Called from the Train goroutine after
// the generation's split decision; a nil Journal skips the record and
// a nil Metrics skips the gauges, so the call is safe under any
// combination.
func (t *Trainer) emitGeneration(gen int, start time.Time, snap genSnapshot, score, scoreDelta float64, whiskers, splitW int, note string) {
	if t.Metrics != nil {
		t.Metrics.Gauge("remy_generation").Set(float64(gen))
		t.Metrics.Gauge("remy_score").Set(score)
		t.Metrics.Gauge("remy_whiskers").Set(float64(whiskers))
	}
	if t.Journal == nil {
		return
	}
	now := t.counterSnapshot()
	cs := t.LocalCacheStats()
	rec := GenerationRecord{
		Gen:               gen,
		WallMillis:        float64(time.Since(start).Microseconds()) / 1e3,
		Score:             score,
		ScoreDelta:        scoreDelta,
		Whiskers:          whiskers,
		SplitWhisker:      splitW,
		Note:              note,
		Slots:             now.slots - snap.slots,
		SkippedSlots:      now.skipped - snap.skipped,
		EvalCacheHits:     int64(cs.Hits - snap.evalHits),
		EvalCacheMisses:   int64(cs.Misses - snap.evalMisses),
		EvalCacheDiskHits: int64(cs.DiskHits - snap.evalDiskHits),
		ShardResults:      int64(t.shardResults - snap.shardResults),
		ShardCacheHits:    int64(t.shardCacheHits - snap.shardCacheHits),
		DrawMemoHits:      now.drawHits - snap.drawHits,
		DrawMemoMisses:    now.drawMisses - snap.drawMisses,
		Lanes:             collectLaneRecords(t.Metrics),
	}
	if err := t.Journal.Emit(rec); err != nil {
		t.logf("remy: telemetry journal: %v", err)
	}
}

// collectLaneRecords folds the registry's shard_lane_* series into one
// record per lane label. Nil registry (or no shard pool) yields nil.
func collectLaneRecords(r *telemetry.Registry) []LaneRecord {
	if r == nil {
		return nil
	}
	lanes := map[string]*LaneRecord{}
	var order []string
	get := func(label string) *LaneRecord {
		if lr, ok := lanes[label]; ok {
			return lr
		}
		lr := &LaneRecord{Lane: label}
		lanes[label] = lr
		order = append(order, label)
		return lr
	}
	r.Visit(func(name string, metric any) {
		if !strings.HasPrefix(name, "shard_lane_") {
			return
		}
		lo := strings.Index(name, `{lane="`)
		hi := strings.LastIndex(name, `"}`)
		if lo < 0 || hi <= lo {
			return
		}
		label := name[lo+len(`{lane="`) : hi]
		series := name[:lo]
		lr := get(label)
		switch series {
		case "shard_lane_jobs_total":
			lr.Jobs = metric.(*telemetry.Counter).Value()
		case "shard_lane_requeues_total":
			lr.Requeues = metric.(*telemetry.Counter).Value()
		case "shard_lane_cfg_refetches_total":
			lr.Refetches = metric.(*telemetry.Counter).Value()
		case "shard_lane_reconnects_total":
			lr.Reconnects = metric.(*telemetry.Counter).Value()
		case "shard_lane_fallbacks_total":
			lr.Fallbacks = metric.(*telemetry.Counter).Value()
		case "shard_lane_job_ns":
			h := metric.(*telemetry.Histogram)
			lr.P50Millis = h.Quantile(0.5) / 1e6
			lr.P90Millis = h.Quantile(0.9) / 1e6
			lr.P99Millis = h.Quantile(0.99) / 1e6
		}
	})
	if len(order) == 0 {
		return nil
	}
	out := make([]LaneRecord, 0, len(order))
	for _, label := range order {
		out = append(out, *lanes[label])
	}
	return out
}
