package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/scenario"
	"learnability/internal/units"
)

// TestRunRejectsBadInvocations table-tests the flag and environment
// plumbing: every bad invocation exits 2 with a diagnostic naming the
// problem, before any listener starts.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		dieAfter string // REMY_SHARD_DIE_AFTER, when non-empty
		want     string // substring of stderr
	}{
		{"disk cache without a cache", []string{"-cache", "-1", "-cache-dir", filepath.Join(t.TempDir(), "d")}, "", "-cache-dir needs the cache enabled"},
		{"non-numeric die-after", nil, "soon", `bad REMY_SHARD_DIE_AFTER "soon"`},
		{"negative die-after", nil, "-3", `bad REMY_SHARD_DIE_AFTER "-3"`},
		{"unknown flag", []string{"-no-such-flag"}, "", "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("REMY_SHARD_DIE_AFTER", tc.dieAfter)
			var stderr bytes.Buffer
			if status := run(tc.args, &stderr); status != 2 {
				t.Fatalf("exit status %d, want 2 (stderr: %s)", status, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", &stderr, tc.want)
			}
		})
	}
}

// startDaemon runs the daemon on an ephemeral loopback port and
// returns the address it reports on stderr. The daemon serves until
// the test binary exits.
func startDaemon(t *testing.T, args ...string) string {
	t.Helper()
	t.Setenv("REMY_SHARD_DIE_AFTER", "")
	pr, pw := io.Pipe()
	go run(append([]string{"-listen", "127.0.0.1:0", "-v=false"}, args...), pw)
	lines := bufio.NewScanner(pr)
	const serving = "remyshardd: serving shard jobs on "
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), serving); ok {
			go io.Copy(io.Discard, pr)
			return strings.Fields(rest)[0]
		}
	}
	t.Fatal("daemon exited before serving")
	return ""
}

// TestDaemonRoundTrip drives the daemon the way remytrain's -remotes
// lanes do: the first job's result equals the uncached reference
// evaluator's, and an exact repeat comes back from the worker's cache
// with the same bits.
func TestDaemonRoundTrip(t *testing.T) {
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

	conn, err := (&shardnet.Dialer{Addr: startDaemon(t)}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for id := uint64(1); id <= 2; id++ {
		got, err := shard.RoundTrip(conn, job(id), 10*time.Second)
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
}
