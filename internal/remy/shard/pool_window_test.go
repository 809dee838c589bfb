package shard

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Tests for the pipelined dispatch window: a lane keeps Window jobs in
// flight, and any transport fault requeues the entire window. The
// scripted transport below lets a test dictate exactly when a
// connection dies and what it answers, which real workers cannot do
// deterministically.

// scriptTransport dials scripted connections: mkConn(n) builds the
// n-th connection (1-based); a nil connection is a refused dial.
type scriptTransport struct {
	mu     sync.Mutex
	dials  int
	mkConn func(dial int) Conn
}

func (t *scriptTransport) Dial() (Conn, error) {
	t.mu.Lock()
	t.dials++
	n := t.dials
	t.mu.Unlock()
	if c := t.mkConn(n); c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("script: dial %d refused", n)
}

func (t *scriptTransport) Name() string { return "script" }

func (t *scriptTransport) dialCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dials
}

// scriptConn is a worker connection with programmable behavior. Its
// send side strips configs the way shardnet's TCP connection does (the
// blob rides inline the first time a hash crosses, and on a forced
// refetch), so the wire stream it "carries" is the real hash-only
// stream; its recv side plays a worker with a scriptable config store.
type scriptConn struct {
	mu      sync.Mutex
	fifo    []*Job
	sends   []sendRecord
	shipped map[Hash]bool
	closed  bool
	// serveBefore is how many results this connection serves before
	// Recv starts failing (-1 = never fail).
	serveBefore int
	served      int
	// failID is a job ID the worker answers with an evaluation error.
	failID uint64
	// known is the worker-side config store. flushEachServe empties it
	// after every served job (a worker that keeps losing its store);
	// alwaysNeedCfg answers NeedCfg even for inline sends (a worker
	// that cannot hold a config at all).
	known          map[Hash]bool
	flushEachServe bool
	alwaysNeedCfg  bool
}

type sendRecord struct {
	id     uint64
	force  bool
	inline bool
}

func newScriptConn(serveBefore int) *scriptConn {
	return &scriptConn{serveBefore: serveBefore, shipped: map[Hash]bool{}, known: map[Hash]bool{}}
}

func (c *scriptConn) Send(job *Job, forceCfg bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	wire := job
	if !job.CfgHash.IsZero() && len(job.Cfg) > 0 {
		if forceCfg || !c.shipped[job.CfgHash] {
			c.shipped[job.CfgHash] = true
		} else {
			stripped := *job
			stripped.Cfg = nil
			wire = &stripped
		}
	}
	c.sends = append(c.sends, sendRecord{id: wire.ID, force: forceCfg, inline: len(wire.Cfg) > 0})
	c.fifo = append(c.fifo, wire)
	return nil
}

func (c *scriptConn) Recv(timeout time.Duration) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.serveBefore >= 0 && c.served >= c.serveBefore {
		return nil, fmt.Errorf("script: connection died")
	}
	if len(c.fifo) == 0 {
		return nil, fmt.Errorf("script: Recv with nothing in flight")
	}
	job := c.fifo[0]
	c.fifo = c.fifo[1:]
	if !job.CfgHash.IsZero() {
		switch {
		case c.alwaysNeedCfg:
			return &Result{ID: job.ID, NeedCfg: true}, nil
		case len(job.Cfg) > 0:
			c.known[job.CfgHash] = true
		case !c.known[job.CfgHash]:
			return &Result{ID: job.ID, NeedCfg: true}, nil
		}
	}
	c.served++
	if c.flushEachServe {
		c.known = map[Hash]bool{}
	}
	if job.ID == c.failID {
		return &Result{ID: job.ID, Err: "script: evaluation failed"}, nil
	}
	res, _ := echoEval(job)
	res.ID = job.ID
	return res, nil
}

func (c *scriptConn) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
}

func (c *scriptConn) sendCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sends)
}

// TestPoolRequeuesWholeWindowOnCrash kills a connection with the full
// pipeline in flight: the first connection accepts Window jobs and
// dies before serving any. Both in-flight jobs must be requeued onto
// the replacement connection, and the batch must complete in order
// without falling back in-process.
func TestPoolRequeuesWholeWindowOnCrash(t *testing.T) {
	var first *scriptConn
	tr := &scriptTransport{mkConn: func(dial int) Conn {
		if dial == 1 {
			first = newScriptConn(0) // dies with the window full
			return first
		}
		return newScriptConn(-1)
	}}
	fallbacks := 0
	pool := &Pool{
		Transports: []Transport{tr},
		Fallback: func(job *Job) (*Result, error) {
			fallbacks++
			return echoEval(job)
		},
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Window != 2 {
		t.Fatalf("Window = %d after Start, want the default 2", pool.Window)
	}

	jobs := testJobs(4, 2)
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.ID != jobs[i].ID || res.Scores[0] != float64(2*i) {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
	if got := first.sendCount(); got != 2 {
		t.Fatalf("crashed connection had %d jobs in flight, want a full window of 2", got)
	}
	if tr.dialCount() < 2 {
		t.Fatalf("pool never redialed after the crash (%d dials)", tr.dialCount())
	}
	if fallbacks != 0 {
		t.Fatalf("%d jobs fell back in-process; requeue should have re-delivered them", fallbacks)
	}
}

// TestPoolResolvesNeedCfgInWindow drives the config refetch inside a
// pipelined window: the worker loses its config store after every job,
// so each hash-only job after the first answers NeedCfg; the pool must
// resend each with the blob inline (forceCfg) on the same connection
// and complete the batch without reconnecting.
func TestPoolResolvesNeedCfgInWindow(t *testing.T) {
	cfg := json.RawMessage(`{"Delta":1}`)
	var conn *scriptConn
	tr := &scriptTransport{mkConn: func(int) Conn {
		conn = newScriptConn(-1)
		conn.flushEachServe = true
		return conn
	}}
	pool := &Pool{Transports: []Transport{tr}, Fallback: echoEval}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	jobs := testJobs(3, 2)
	for _, job := range jobs {
		job.CfgHash = HashBytes(cfg)
		job.Cfg = cfg
	}
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.ID != jobs[i].ID || res.NeedCfg {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
	if tr.dialCount() != 1 {
		t.Fatalf("NeedCfg refetch caused %d dials, want the original connection to survive", tr.dialCount())
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	forced := 0
	for _, s := range conn.sends {
		if s.force {
			forced++
			if !s.inline {
				t.Fatal("forced refetch send did not carry the config inline")
			}
		}
	}
	if forced == 0 {
		t.Fatal("worker answered NeedCfg but no forced inline resend followed")
	}
}

// TestPoolTreatsRepeatedNeedCfgAsBroken gives the lane a worker that
// answers NeedCfg even for inline sends: after one refetch the pool
// must declare the connection broken, reconnect, and finish the batch
// on the replacement.
func TestPoolTreatsRepeatedNeedCfgAsBroken(t *testing.T) {
	cfg := json.RawMessage(`{"Delta":2}`)
	tr := &scriptTransport{}
	tr.mkConn = func(dial int) Conn {
		c := newScriptConn(-1)
		if dial == 1 {
			c.alwaysNeedCfg = true
		}
		return c
	}
	pool := &Pool{Transports: []Transport{tr}, Fallback: echoEval}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	jobs := testJobs(2, 1)
	for _, job := range jobs {
		job.CfgHash = HashBytes(cfg)
		job.Cfg = cfg
	}
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.ID != jobs[i].ID {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
	if tr.dialCount() < 2 {
		t.Fatalf("pool kept a worker that can never hold a config (%d dials)", tr.dialCount())
	}
}
