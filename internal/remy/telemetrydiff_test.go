package remy

// Differential tests for the telemetry plane at the trainer layer: a
// fully instrumented training run — generation journal, metrics
// registry, per-lane fabric counters — must produce a tree BYTE-EQUAL
// to the uninstrumented trainer, in-process and across shard lanes.
// Telemetry reads counters and clocks after the float work; it must
// never steer it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"learnability/internal/remy/shardnet"
	"learnability/internal/telemetry"
)

func TestTelemetryInvisibleInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	var buf bytes.Buffer
	tr := &Trainer{
		Cfg: tinyConfig(), Seed: seed, Workers: 4,
		Metrics: telemetry.NewRegistry(),
		Journal: telemetry.NewJournal(&buf),
	}
	if got := trainBytes(t, tr); !bytes.Equal(got, want) {
		t.Fatal("telemetry changed the trained tree (in-process)")
	}

	// The journal must hold one decodable record per generation, each
	// accounting for a positive number of evaluation slots.
	sc := bufio.NewScanner(&buf)
	gens := 0
	for sc.Scan() {
		var rec GenerationRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %d: %v", gens+1, err)
		}
		if rec.Gen != gens {
			t.Fatalf("journal line %d has gen %d", gens+1, rec.Gen)
		}
		if rec.Slots <= 0 {
			t.Fatalf("gen %d journaled %d slots", rec.Gen, rec.Slots)
		}
		gens++
	}
	if gens == 0 {
		t.Fatal("instrumented training emitted no generation records")
	}
	if got := tr.SlotsEvaluated(); got <= 0 {
		t.Fatalf("SlotsEvaluated = %d", got)
	}
}

func TestTelemetryInvisibleShardedLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	a, _ := startTCPWorker(t, nil)
	b, _ := startTCPWorker(t, nil)
	var buf bytes.Buffer
	tr := &Trainer{
		Cfg: tinyConfig(), Seed: seed, Remotes: []string{a, b},
		Metrics: telemetry.NewRegistry(),
		Journal: telemetry.NewJournal(&buf),
	}
	if got := trainBytes(t, tr); !bytes.Equal(got, want) {
		t.Fatal("telemetry changed the trained tree (two TCP lanes)")
	}
	// The lane counters must have folded into the journal's records.
	sc := bufio.NewScanner(&buf)
	var last GenerationRecord
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if len(last.Lanes) != 2 {
		t.Fatalf("final record has %d lanes, want 2", len(last.Lanes))
	}
	var jobs int64
	for _, l := range last.Lanes {
		jobs += l.Jobs
	}
	if jobs <= 0 {
		t.Fatalf("lanes report %d jobs", jobs)
	}
}

func TestTelemetryInvisibleTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	// The worker side is instrumented too: server metrics must not
	// change what it computes.
	reg := telemetry.NewRegistry()
	addr, _ := startTCPWorker(t, &shardnet.Server{Metrics: reg})
	var buf bytes.Buffer
	tr := &Trainer{
		Cfg: tinyConfig(), Seed: seed, Remotes: []string{addr},
		Metrics: telemetry.NewRegistry(),
		Journal: telemetry.NewJournal(&buf),
	}
	if got := trainBytes(t, tr); !bytes.Equal(got, want) {
		t.Fatal("telemetry changed the trained tree (TCP lanes)")
	}
	if got := reg.Counter("shardnet_server_jobs_total").Value(); got <= 0 {
		t.Fatalf("worker served %d jobs per its metrics", got)
	}
	// The heartbeat-gap histogram may be empty (jobs are fast), but the
	// coordinator's lane series must exist and account for every job.
	if buf.Len() == 0 {
		t.Fatal("no journal records")
	}
}
