package main

import (
	"bytes"
	"encoding/json"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy"
	"learnability/internal/remy/shard"
	"learnability/internal/scenario"
	"learnability/internal/units"
)

// TestRunRejectsBadInvocations table-tests the flag and environment
// plumbing: every bad invocation exits 2 with a diagnostic naming the
// problem, before any listener or worker loop starts.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		dieAfter string // REMY_SHARD_DIE_AFTER, when non-empty
		want     string // substring of stderr
	}{
		{"disk cache without a cache", []string{"-cache", "-1", "-cache-dir", filepath.Join(t.TempDir(), "d")}, "", "-cache-dir needs the cache enabled"},
		{"non-numeric die-after", []string{"-stdio"}, "soon", `bad REMY_SHARD_DIE_AFTER "soon"`},
		{"negative die-after", nil, "-3", `bad REMY_SHARD_DIE_AFTER "-3"`},
		{"unknown flag", []string{"-no-such-flag"}, "", "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("REMY_SHARD_DIE_AFTER", tc.dieAfter)
			var stdout, stderr bytes.Buffer
			if status := run(tc.args, strings.NewReader(""), &stdout, &stderr); status != 2 {
				t.Fatalf("exit status %d, want 2 (stderr: %s)", status, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", &stderr, tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("wrote %d bytes to stdout", stdout.Len())
			}
		})
	}
}

// TestStdioOpensNoListener points -listen at a port this test already
// holds: the daemon mode would fail to bind it, so a clean exit on an
// empty job stream proves -stdio never tried.
func TestStdioOpensNoListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-listen", ln.Addr().String()}, strings.NewReader(""), &stdout, &stderr); status != 1 {
		t.Fatalf("daemon mode on a held port exited %d, want 1 (the guard is vacuous)", status)
	}
	stderr.Reset()
	if status := run([]string{"-stdio", "-listen", ln.Addr().String()}, strings.NewReader(""), &stdout, &stderr); status != 0 {
		t.Fatalf("-stdio on an empty job stream exited %d: %s", status, &stderr)
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("-stdio with nothing to do wrote stdout %q, stderr %q", &stdout, &stderr)
	}
}

// TestStdioRoundTrip drives the -stdio worker the way remytrain's
// -shard-cmd lanes do: the first job's result equals the uncached
// reference evaluator's, and an exact repeat comes back from the
// worker's cache with the same bits.
func TestStdioRoundTrip(t *testing.T) {
	cfg := remy.Config{
		Topology:     scenario.Dumbbell,
		LinkSpeedMin: 10 * units.Mbps,
		LinkSpeedMax: 20 * units.Mbps,
		MinRTTMin:    100 * units.Millisecond,
		MinRTTMax:    100 * units.Millisecond,
		SendersMin:   2,
		SendersMax:   2,
		MeanOn:       units.Second,
		MeanOff:      units.Second,
		Buffering:    scenario.FiniteDropTail,
		BufferBDP:    5,
		Delta:        1,
		Duration:     2 * units.Second,
		Replicas:     2,
	}
	cfgJSON, err := json.Marshal(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := remycc.NewTree().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	job := func(id uint64) *shard.Job {
		return &shard.Job{
			ID: id, Version: shard.ProtocolVersion, Seed: 3, Gen: 0,
			Replicas: cfg.Replicas, UsageFor: 0, SlotLo: 0, SlotHi: cfg.Replicas,
			Workers: 1, Trees: [][]byte{tree}, Cfg: cfgJSON, CfgHash: shard.HashBytes(cfgJSON),
		}
	}
	want, err := remy.EvalShardJob(job(0))
	if err != nil {
		t.Fatal(err)
	}

	var stdin, stdout, stderr bytes.Buffer
	for id := uint64(1); id <= 2; id++ {
		if err := shard.WriteJob(&stdin, job(id)); err != nil {
			t.Fatal(err)
		}
	}
	if status := run([]string{"-stdio"}, &stdin, &stdout, &stderr); status != 0 {
		t.Fatalf("exit status %d: %s", status, &stderr)
	}
	for id := uint64(1); id <= 2; id++ {
		got, err := shard.ReadResult(&stdout)
		if err != nil {
			t.Fatalf("result %d: %v", id, err)
		}
		if got.ID != id || got.Err != "" {
			t.Fatalf("result %d: ID %d, Err %q", id, got.ID, got.Err)
		}
		if !reflect.DeepEqual(got.Scores, want.Scores) || !reflect.DeepEqual(got.Usage, want.Usage) {
			t.Fatalf("result %d differs from EvalShardJob:\ngot  %v %+v\nwant %v %+v", id, got.Scores, got.Usage, want.Scores, want.Usage)
		}
		if wantCached := id == 2; got.Cached != wantCached {
			t.Fatalf("result %d: Cached = %v, want %v", id, got.Cached, wantCached)
		}
	}
	if stdout.Len() != 0 {
		t.Fatalf("%d stray bytes after the last result", stdout.Len())
	}
}
