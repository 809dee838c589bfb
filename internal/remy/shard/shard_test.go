package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

func TestServeEvaluatesJobs(t *testing.T) {
	var in, out bytes.Buffer
	for _, job := range testJobs(3, 2) {
		if err := WriteJob(&in, job); err != nil {
			t.Fatal(err)
		}
	}
	if err := Serve(&in, &out, echoEval, ServeOpts{}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	for i := 0; i < 3; i++ {
		res, err := ReadResult(&out)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.ID != uint64(100+i) || res.Err != "" {
			t.Fatalf("result %d = %+v", i, res)
		}
		if len(res.Scores) != 2 || res.Scores[0] != float64(2*i) {
			t.Fatalf("result %d scores = %v", i, res.Scores)
		}
	}
}

// TestServeAnswersBinary pins the one result wire: DecodeJob still
// accepts a JSON-encoded job (the codec tests' oracle encoding), but a
// worker never echoes that codec back — the answer is a binary frame.
func TestServeAnswersBinary(t *testing.T) {
	var in, out bytes.Buffer
	if err := WriteFrame(&in, testJobs(1, 2)[0]); err != nil {
		t.Fatal(err)
	}
	if err := Serve(&in, &out, echoEval, ServeOpts{}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	payload, err := ReadPayload(&out)
	if err != nil {
		t.Fatal(err)
	}
	if IsJSONPayload(payload) {
		t.Fatalf("worker answered a JSON job in JSON: %s", payload)
	}
	if res, err := DecodeResult(payload); err != nil || res.ID != 100 || len(res.Scores) != 2 {
		t.Fatalf("binary answer = %+v, %v", res, err)
	}
}

func TestServeRejectsVersionMismatch(t *testing.T) {
	var in, out bytes.Buffer
	job := testJobs(1, 1)[0]
	job.Version = ProtocolVersion + 1
	WriteJob(&in, job)
	if err := Serve(&in, &out, echoEval, ServeOpts{}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	res, err := ReadResult(&out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" {
		t.Fatal("version mismatch not reported")
	}
}

func TestServeDieAfter(t *testing.T) {
	var in, out bytes.Buffer
	for _, job := range testJobs(3, 1) {
		WriteJob(&in, job)
	}
	err := Serve(&in, &out, echoEval, ServeOpts{DieAfter: 2})
	if !errors.Is(err, ErrDied) {
		t.Fatalf("serve = %v, want ErrDied", err)
	}
	n := 0
	for {
		if _, err := ReadResult(&out); err != nil {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("worker replied to %d jobs before dying, want 2", n)
	}
}

func TestPoolLocalLanes(t *testing.T) {
	var calls int64
	pool := &Pool{
		Lanes: 4,
		Fallback: func(job *Job) (*Result, error) {
			atomic.AddInt64(&calls, 1)
			return echoEval(job)
		},
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
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
	if calls != int64(len(jobs)) {
		t.Fatalf("%d eval calls for %d jobs", calls, len(jobs))
	}
}

func TestPoolSurfacesEvalError(t *testing.T) {
	pool := &Pool{
		Lanes: 2,
		Fallback: func(job *Job) (*Result, error) {
			if job.ID == 101 {
				return nil, fmt.Errorf("boom")
			}
			return echoEval(job)
		},
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Do(testJobs(4, 1)); err == nil {
		t.Fatal("eval error not surfaced")
	}
}

func TestPoolCrashedProcessFallsBack(t *testing.T) {
	// A worker command that exits immediately looks like a crash on
	// every round-trip; after MaxAttempts the pool must evaluate the
	// job in-process and still deliver a complete, ordered batch.
	pool := &Pool{
		Lanes:       2,
		Cmd:         []string{"false"},
		MaxAttempts: 2,
		Fallback:    echoEval,
	}
	if err := pool.Start(); err != nil {
		t.Skipf("cannot spawn 'false': %v", err)
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
}

func TestPoolStartRejectsBadCommand(t *testing.T) {
	pool := &Pool{
		Lanes:    1,
		Cmd:      []string{"/nonexistent/worker/binary"},
		Fallback: echoEval,
	}
	if err := pool.Start(); err == nil {
		pool.Close()
		t.Fatal("Start accepted a nonexistent worker command")
	}
}
