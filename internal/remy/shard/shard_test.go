package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"sync/atomic"
	"testing"
)

// echoEval returns a recognizable per-slot score so tests can verify
// routing: score of slot s is float64(s).
func echoEval(job *Job) (*Result, error) {
	scores := make([]float64, job.SlotHi-job.SlotLo)
	for i := range scores {
		scores[i] = float64(job.SlotLo + i)
	}
	return &Result{Scores: scores}, nil
}

func testJobs(n, slotsPer int) []*Job {
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = &Job{
			ID:      uint64(100 + i),
			Version: ProtocolVersion,
			SlotLo:  i * slotsPer,
			SlotHi:  (i + 1) * slotsPer,
		}
	}
	return jobs
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	job := &Job{
		ID: 7, Version: ProtocolVersion, Seed: 42, Gen: 3, Replicas: 4,
		UsageFor: 1, SlotLo: 4, SlotHi: 8, Workers: 2,
		Trees: [][]byte{{1, 2, 3}},
		Cfg:   json.RawMessage(`{"Delta":1}`),
	}
	if err := WriteFrame(&buf, job); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := &Job{}
	if err := ReadFrame(&buf, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.ID != job.ID || got.Seed != job.Seed || got.Gen != job.Gen ||
		got.SlotLo != job.SlotLo || got.SlotHi != job.SlotHi ||
		!bytes.Equal(got.Trees[0], job.Trees[0]) {
		t.Fatalf("round trip changed job: %+v", got)
	}
	if err := ReadFrame(&buf, &Job{}); err != io.EOF {
		t.Fatalf("empty stream read = %v, want io.EOF", err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if err := ReadFrame(&buf, &Job{}); err == nil || err == io.EOF {
		t.Fatalf("oversize frame read = %v, want error", err)
	}
}

// countingEval is echoEval counting its calls, for tests that must
// prove the in-process fallback did (or did not) run.
func countingEval(calls *atomic.Int64) Eval {
	return func(job *Job) (*Result, error) {
		calls.Add(1)
		return echoEval(job)
	}
}

// TestPoolLocalLanes fans a batch over four healthy lanes: results
// come back in batch order whichever lane served them, every job is
// delivered exactly once, and the in-process fallback never runs.
func TestPoolLocalLanes(t *testing.T) {
	pool := &Pool{Fallback: func(job *Job) (*Result, error) {
		t.Error("fallback used; every lane is healthy")
		return echoEval(job)
	}}
	conns := make([]*scriptConn, 4)
	for i := range conns {
		c := newScriptConn(-1)
		conns[i] = c
		pool.Transports = append(pool.Transports, &scriptTransport{mkConn: func(int) Conn { return c }})
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.NumLanes() != 4 {
		t.Fatalf("NumLanes = %d, want one per transport", pool.NumLanes())
	}
	jobs := testJobs(10, 3)
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.ID != jobs[i].ID {
			t.Fatalf("result %d has ID %d, want %d (merge order broken)", i, res.ID, jobs[i].ID)
		}
		if res.Scores[0] != float64(3*i) {
			t.Fatalf("result %d scores = %v", i, res.Scores)
		}
	}
	served := 0
	for _, c := range conns {
		c.mu.Lock()
		served += c.served
		c.mu.Unlock()
	}
	if served != len(jobs) {
		t.Fatalf("lanes served %d jobs for a batch of %d", served, len(jobs))
	}
}

// TestPoolSurfacesEvalError has a worker answer one job with an
// evaluation error: a deterministic failure, so the batch fails with
// it instead of requeueing.
func TestPoolSurfacesEvalError(t *testing.T) {
	tr := &scriptTransport{mkConn: func(int) Conn {
		c := newScriptConn(-1)
		c.failID = 101
		return c
	}}
	pool := &Pool{Transports: []Transport{tr, tr}, Fallback: echoEval}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Do(testJobs(4, 1)); err == nil {
		t.Fatal("eval error not surfaced")
	}
	if tr.dialCount() != 2 {
		t.Fatalf("an evaluation error caused a redial (%d dials)", tr.dialCount())
	}
}

// TestPoolCrashedProcessFallsBack kills the lane's only connection
// with its window in flight and refuses every redial: the lane is dead,
// and the in-process fallback must still deliver a complete, ordered
// batch.
func TestPoolCrashedProcessFallsBack(t *testing.T) {
	tr := &scriptTransport{mkConn: func(dial int) Conn {
		if dial == 1 {
			return newScriptConn(0)
		}
		return nil
	}}
	var fallbacks atomic.Int64
	pool := &Pool{Transports: []Transport{tr}, Fallback: countingEval(&fallbacks)}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jobs := testJobs(4, 2)
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	for i, res := range results {
		if res.ID != jobs[i].ID || len(res.Scores) != 2 {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
	if got := fallbacks.Load(); got != int64(len(jobs)) {
		t.Fatalf("%d jobs fell back in-process, want all %d", got, len(jobs))
	}
}

// TestPoolStartRejectsBadCommand fails the second lane's dial at
// Start: Start must return the error and close the connection the
// first lane already holds.
func TestPoolStartRejectsBadCommand(t *testing.T) {
	good := newScriptConn(-1)
	pool := &Pool{
		Transports: []Transport{
			&scriptTransport{mkConn: func(int) Conn { return good }},
			&scriptTransport{mkConn: func(int) Conn { return nil }},
		},
		Fallback: echoEval,
	}
	if err := pool.Start(); err == nil {
		pool.Close()
		t.Fatal("Start accepted a lane whose dial failed")
	}
	if pool.NumLanes() != 0 {
		t.Fatalf("failed Start left %d lanes", pool.NumLanes())
	}
	if !good.closed {
		t.Fatal("failed Start leaked the first lane's connection")
	}
	if err := (&Pool{Fallback: echoEval}).Start(); err == nil {
		t.Fatal("Start accepted a pool without transports")
	}
}
