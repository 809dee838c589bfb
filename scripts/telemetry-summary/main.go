// Command telemetry-summary folds a remytrain -telemetry journal (one
// JSON remy.GenerationRecord per line) into a human-readable table:
// per generation the wall time, score trajectory, slot volume, the
// share of slots skipped, and cache hit rates, followed by run totals and — when the run was
// sharded with metrics enabled — the final per-lane fabric counters.
//
// Usage:
//
//	remytrain -telemetry gen.jsonl ...
//	go run ./scripts/telemetry-summary gen.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"learnability/internal/remy"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: telemetry-summary gen.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "telemetry-summary:", err)
		os.Exit(1)
	}
	defer f.Close()

	var recs []remy.GenerationRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec remy.GenerationRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry-summary: %s:%d: %v\n", os.Args[1], line, err)
			os.Exit(1)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "telemetry-summary:", err)
		os.Exit(1)
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "telemetry-summary: no records")
		os.Exit(1)
	}

	fmt.Printf("%-4s %10s %10s %9s %8s %6s %8s %7s %9s %9s %9s %s\n",
		"gen", "wall(ms)", "score", "delta", "whiskers", "split", "slots", "skip%", "eval-hit%", "shard-hit%", "draw-hit%", "note")
	var (
		totWall                    float64
		totSlots, totSkipped       int64
		totEvalHits, totEvalMiss   int64
		totDiskHits                int64
		totShard, totShardHits     int64
		totDrawHits, totDrawMisses int64
	)
	for _, r := range recs {
		split := "-"
		if r.SplitWhisker >= 0 {
			split = fmt.Sprintf("%d", r.SplitWhisker)
		}
		fmt.Printf("%-4d %10.1f %10.4f %+9.4f %8d %6s %8d %7s %9s %9s %9s %s\n",
			r.Gen, r.WallMillis, r.Score, r.ScoreDelta, r.Whiskers, split, r.Slots,
			pct(r.SkippedSlots, r.Slots),
			pct(r.EvalCacheHits, r.EvalCacheHits+r.EvalCacheMisses),
			pct(r.ShardCacheHits, r.ShardResults),
			pct(r.DrawMemoHits, r.DrawMemoHits+r.DrawMemoMisses),
			r.Note)
		totWall += r.WallMillis
		totSlots += r.Slots
		totSkipped += r.SkippedSlots
		totEvalHits += r.EvalCacheHits
		totEvalMiss += r.EvalCacheMisses
		totDiskHits += r.EvalCacheDiskHits
		totShard += r.ShardResults
		totShardHits += r.ShardCacheHits
		totDrawHits += r.DrawMemoHits
		totDrawMisses += r.DrawMemoMisses
	}
	last := recs[len(recs)-1]
	fmt.Printf("\ntotal: %d generations, %.1f ms wall, %d slots (%d skipped), final score %.4f (%d whiskers)\n",
		len(recs), totWall, totSlots, totSkipped, last.Score, last.Whiskers)
	fmt.Printf("caches: eval %s hit (%d hits, %d from disk, %d misses); shard %s hit (%d/%d); draw memo %s hit (%d/%d)\n",
		pct(totEvalHits, totEvalHits+totEvalMiss), totEvalHits, totDiskHits, totEvalMiss,
		pct(totShardHits, totShard), totShardHits, totShard,
		pct(totDrawHits, totDrawHits+totDrawMisses), totDrawHits, totDrawHits+totDrawMisses)

	// Lane counters are cumulative, so the last record carries the run's
	// final fabric shape.
	if len(last.Lanes) > 0 {
		fmt.Printf("\n%-16s %8s %8s %10s %9s %9s %9s %9s\n",
			"lane", "jobs", "requeues", "reconnects", "fallbacks", "p50(ms)", "p90(ms)", "p99(ms)")
		for _, l := range last.Lanes {
			fmt.Printf("%-16s %8d %8d %10d %9d %9.2f %9.2f %9.2f\n",
				l.Lane, l.Jobs, l.Requeues, l.Reconnects, l.Fallbacks,
				l.P50Millis, l.P90Millis, l.P99Millis)
		}
	}
}

// pct formats hits/total as a percentage, "-" when total is zero.
func pct(hits, total int64) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
}
