// Package shard distributes one training generation's candidate
// evaluations across workers. The coordinator (internal/remy) slices a
// generation's evaluation batch — every (candidate tree, replica)
// slot — into self-contained Jobs, fans them out over a Pool of lanes
// speaking length-prefixed frames (the binary v4 codec of codec.go —
// the one wire for a job) to remyshardd daemons over TCP
// (internal/remy/shardnet; one machine runs `remyshardd -listen
// 127.0.0.1:PORT` and points `remytrain -remotes` at it), and merges
// the Results deterministically regardless of completion order.
//
// Determinism contract: a Job carries everything a worker needs to
// recompute its slice bit-for-bit — the root seed and generation number
// (from which the worker re-derives the generation's scenario draws via
// rng.New(Seed).SplitN("generation", Gen)), the stable-binary candidate
// trees (remycc's codec), and the training config, whose declarative
// topology description (links, paths, per-link speed ranges) rides
// along so workers rebuild the exact multi-hop network of every draw.
// Evaluation is a pure function of the Job, so a crashed or timed-out
// worker's Job can be requeued on any other worker (or evaluated
// in-process as a last resort) without changing the outcome. Scores and
// usage statistics cross the wire as raw IEEE-754 bits, so every
// float64 survives bit-exactly.
package shard

import (
	"encoding/json"
	"fmt"
	"io"

	"learnability/internal/cc/remycc"
)

// ProtocolVersion is carried in every Job; workers reject mismatches
// rather than silently miscomputing. Version 2 added topology-bearing
// training configs: Cfg's topology field became a declarative graph
// description (kind/hops/cross or explicit edges and routes) instead of
// a two-member enum, so jobs ship arbitrary multi-hop topologies.
// Version 3 added the binary codec (codec.go) and config-by-hash
// shipping (Job.CfgHash, Result.NeedCfg). Version 4 added batches over
// a subset of replicas (Job.Reps) and per-slot fired sets
// (Result.Fired).
const ProtocolVersion = 4

// maxFrame bounds one wire frame. Jobs are dominated by candidate
// trees (~100 bytes per whisker), so real frames are kilobytes; the cap
// only guards against a corrupt length prefix.
const maxFrame = 64 << 20

// Job is one self-contained slice of a generation's evaluation batch:
// slots [SlotLo, SlotHi) of the flattened (tree × replica) space, where
// slot s means tree s/n evaluated on replica draw Reps[s%n] with
// n = len(Reps) — or, with Reps empty, tree s/Replicas on draw
// s%Replicas.
type Job struct {
	// ID matches a Result to its Job across the wire.
	ID uint64 `json:"id"`
	// Version is the sender's ProtocolVersion.
	Version int `json:"version"`
	// Seed is the training root seed; together with Gen it lets the
	// worker re-derive the generation's scenario draws.
	Seed uint64 `json:"seed"`
	// Gen is the generation (whisker-split round) being evaluated.
	Gen int `json:"gen"`
	// Replicas is the number of scenario draws per candidate.
	Replicas int `json:"replicas"`
	// UsageFor is the tree index whose whisker usage the coordinator
	// needs (-1 for none); the worker returns per-replica usage for
	// that tree's slots in its slice.
	UsageFor int `json:"usage_for"`
	// SlotLo and SlotHi bound this job's half-open slot range.
	SlotLo int `json:"slot_lo"`
	// SlotHi is the exclusive upper slot bound.
	SlotHi int `json:"slot_hi"`
	// Workers bounds the worker's internal parallelism (0 = NumCPU).
	Workers int `json:"workers"`
	// TreeLo is the batch-wide index of Trees[0]: jobs carry only the
	// candidate trees their slot range touches, so tree ti lives at
	// Trees[ti-TreeLo].
	TreeLo int `json:"tree_lo"`
	// Trees holds the candidate trees covering [SlotLo, SlotHi),
	// encoded with remycc's stable binary codec.
	Trees [][]byte `json:"trees"`
	// Reps lists the replicas the batch runs on, strictly ascending in
	// [0, Replicas); empty means every replica. The coordinator leaves
	// out replicas where a hill-climb move cannot change the run.
	Reps []int `json:"reps,omitempty"`
	// Cfg is the training configuration, owned (and round-tripped) by
	// internal/remy; shard treats it as opaque. With CfgHash set, Cfg
	// may be empty on the wire: a connection ships the blob once, then
	// references it by hash, and workers resolve hash-only jobs from
	// their ConfigStore (answering NeedCfg on a miss).
	Cfg json.RawMessage `json:"cfg,omitempty"`
	// CfgHash is the SHA-256 content address of Cfg. Zero means the
	// config always rides inline (the pre-v3 behavior, kept for
	// hand-built jobs and the reference path).
	CfgHash Hash `json:"cfg_hash"`

	// index is the job's position in its batch (coordinator side only).
	index int
	// attempts counts worker deliveries tried for this job
	// (coordinator side only).
	attempts int
}

// Result is a worker's answer to one Job.
type Result struct {
	// ID echoes the Job's ID.
	ID uint64 `json:"id"`
	// Scores holds one objective per slot, in slot order
	// (SlotHi-SlotLo entries).
	Scores []float64 `json:"scores"`
	// Usage holds per-replica whisker usage of the UsageFor tree, for
	// the replicas that fell in this job's slice.
	Usage []UsageFrame `json:"usage,omitempty"`
	// Fired holds each slot's fired set, in slot order: the same number
	// of words per slot (len(Fired)/len(Scores), one per 64 whiskers of
	// the job's largest tree), bit w%64 of word w/64 set when whisker w
	// fired on at least one ACK of the slot's run.
	Fired []uint64 `json:"fired,omitempty"`
	// Err reports an evaluation failure (bad config, undecodable
	// tree). It is a deterministic error, not a crash: the pool
	// surfaces it instead of requeueing.
	Err string `json:"err,omitempty"`
	// Cached marks a result assembled entirely from a worker-side
	// content-addressed slot cache (internal/remy/shardnet) instead of
	// fresh evaluations. Purely informational: cached entries are the
	// stored bits of identical earlier (config, draw, tree) slots, so
	// scores are unaffected; the coordinator tallies it for the
	// hit-rate report.
	Cached bool `json:"cached,omitempty"`
	// NeedCfg reports a config-store miss on a hash-only job: the
	// worker does not hold CfgHash's blob and evaluated nothing. The
	// pool resends the job with the config inline — a refetch, not a
	// failure, so it never consumes a delivery attempt.
	NeedCfg bool `json:"need_cfg,omitempty"`
}

// UsageFrame is one replica's whisker usage of the UsageFor tree.
type UsageFrame struct {
	// K is the replica index.
	K int `json:"k"`
	// Count is the per-whisker fire count.
	Count []int64 `json:"count"`
	// Sum is the per-whisker sum of observed memory vectors.
	Sum [][remycc.NumSignals]float64 `json:"sum"`
}

// Stats converts the frame back into the trainer's accumulator type.
func (f *UsageFrame) Stats() *remycc.UsageStats {
	return &remycc.UsageStats{Count: f.Count, Sum: f.Sum}
}

// marshalJSONFrame renders v as a JSON frame payload.
func marshalJSONFrame(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("shard: marshal frame: %w", err)
	}
	return payload, nil
}

// unmarshalJSONFrame decodes a JSON frame payload into v.
func unmarshalJSONFrame(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("shard: decode frame: %w", err)
	}
	return nil
}

// WriteFrame writes v as one length-prefixed JSON frame — the codec
// of control frames (handshakes, heartbeats). Jobs and results cross
// in the binary codec via WriteJob/WriteResult.
func WriteFrame(w io.Writer, v any) error {
	payload, err := marshalJSONFrame(v)
	if err != nil {
		return err
	}
	return WritePayload(w, payload)
}

// ReadFrame reads one JSON frame written by WriteFrame into v. It
// returns io.EOF unwrapped when the stream ends cleanly between frames,
// so worker loops can distinguish shutdown from truncation.
func ReadFrame(r io.Reader, v any) error {
	payload, err := ReadPayload(r)
	if err != nil {
		return err
	}
	return unmarshalJSONFrame(payload, v)
}

// Eval evaluates one job. internal/remy provides the real one; tests
// inject fakes.
type Eval func(*Job) (*Result, error)

// ResolveConfig fills in a hash-only job's Cfg from the store (or
// stores an inline one). It returns a NeedCfg Result on a store miss
// and an error Result on a corrupt blob; nil means the job's config is
// ready for evaluation.
func ResolveConfig(job *Job, store *ConfigStore) *Result {
	if job.CfgHash.IsZero() {
		return nil
	}
	if len(job.Cfg) > 0 {
		if err := store.Put(job.CfgHash, job.Cfg); err != nil {
			return &Result{ID: job.ID, Err: err.Error()}
		}
		return nil
	}
	cfg, ok := store.Get(job.CfgHash)
	if !ok {
		return &Result{ID: job.ID, NeedCfg: true}
	}
	job.Cfg = cfg
	return nil
}
