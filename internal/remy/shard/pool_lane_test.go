package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for a pool lane's job stream: one job in flight per lane, a
// fault requeues that job, a redialed connection ships its config
// again, and a batch of one job per lane lands job i on lane i. The
// scripted transport below lets a test dictate exactly when
// a connection dies and what it answers, which real workers cannot do
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
// send side strips configs the way shardnet's TCP connection does (a
// job goes by hash alone when its config is the one the connection
// shipped last), so the wire stream it "carries" is the real hash-only
// stream; its recv side plays a worker session, which holds the last
// config that arrived inline and breaks on a hash-only job for any
// other.
type scriptConn struct {
	mu      sync.Mutex
	fifo    []*Job
	sends   []sendRecord
	shipped Hash
	held    Hash
	closed  bool
	// serveBefore is how many results this connection serves before
	// Recv starts failing (-1 = never fail).
	serveBefore int
	served      int
	// failID is a job ID the worker answers with an evaluation error.
	failID uint64
	// stripAll sends every hash-bearing job by hash alone, shipped or
	// not (a client that lost track of its connection's config).
	stripAll bool
	// onSend, when set, runs after every Send; recvGate, when set,
	// runs before every Recv with this connection's send count, and
	// its error fails the Recv.
	onSend   func()
	recvGate func(sent int) error
}

type sendRecord struct {
	id     uint64
	inline bool
}

func newScriptConn(serveBefore int) *scriptConn {
	return &scriptConn{serveBefore: serveBefore}
}

func (c *scriptConn) Send(job *Job) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	wire := job
	if !job.CfgHash.IsZero() && len(job.Cfg) > 0 {
		if c.stripAll || job.CfgHash == c.shipped {
			stripped := *job
			stripped.Cfg = nil
			wire = &stripped
		} else {
			c.shipped = job.CfgHash
		}
	}
	c.sends = append(c.sends, sendRecord{id: wire.ID, inline: len(wire.Cfg) > 0})
	c.fifo = append(c.fifo, wire)
	if c.onSend != nil {
		c.onSend()
	}
	return nil
}

func (c *scriptConn) Recv(timeout time.Duration, res *Result) error {
	if c.recvGate != nil {
		if err := c.recvGate(c.sendCount()); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.serveBefore >= 0 && c.served >= c.serveBefore {
		return fmt.Errorf("script: connection died")
	}
	if len(c.fifo) == 0 {
		return fmt.Errorf("script: Recv with nothing in flight")
	}
	job := c.fifo[0]
	c.fifo = c.fifo[1:]
	if !job.CfgHash.IsZero() {
		switch {
		case len(job.Cfg) > 0:
			c.held = job.CfgHash
		case job.CfgHash != c.held:
			return fmt.Errorf("script: session closed on job %d for an unshipped config", job.ID)
		}
	}
	c.served++
	if job.ID == c.failID {
		*res = Result{ID: job.ID, Err: "script: evaluation failed"}
		return nil
	}
	echo, _ := echoEval(job)
	*res = *echo
	res.ID = job.ID
	return nil
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

func (c *scriptConn) sendLog() []sendRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sendRecord(nil), c.sends...)
}

func (c *scriptConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// barrier lets n parties wait, with a deadline, until each of them has
// arrived k times.
type barrier struct {
	n       int
	mu      sync.Mutex
	count   int
	changed chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, changed: make(chan struct{})} }

// arrive records one arrival and wakes every waiter.
func (b *barrier) arrive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
	close(b.changed)
	b.changed = make(chan struct{})
}

// wait blocks until n×k arrivals, or fails after deadline.
func (b *barrier) wait(k int, deadline time.Duration) error {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		b.mu.Lock()
		count, changed := b.count, b.changed
		b.mu.Unlock()
		if count >= b.n*k {
			return nil
		}
		select {
		case <-changed:
		case <-timer.C:
			return fmt.Errorf("barrier: %d of %d arrivals after %v", count, b.n*k, deadline)
		}
	}
}

// TestPoolBatchLandsOnePerLane sends batches of two jobs over two
// lanes whose connections hold each Recv until both lanes together
// have sent as many jobs as that lane has — i.e. until the other lane
// took its share. A lane that takes both jobs of a batch (a two-deep
// window) waits alone until the deadline and fails the test; with one
// job in flight per lane, each lane must take exactly one job of every
// batch.
func TestPoolBatchLandsOnePerLane(t *testing.T) {
	const batches = 20
	sends := newBarrier(2)
	var alone atomic.Int64
	pool := &Pool{Fallback: func(job *Job) (*Result, error) {
		t.Error("fallback used; every lane is healthy")
		return echoEval(job)
	}}
	conns := make([]*scriptConn, 2)
	for i := range conns {
		c := newScriptConn(-1)
		c.onSend = sends.arrive
		c.recvGate = func(sent int) error {
			if err := sends.wait(sent, 2*time.Second); err != nil {
				alone.Add(1)
				return err
			}
			return nil
		}
		conns[i] = c
		pool.Transports = append(pool.Transports, &scriptTransport{mkConn: func(int) Conn { return c }})
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for b := 0; b < batches; b++ {
		jobs := testJobs(2, 3)
		results, err := pool.Do(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if n := alone.Load(); n > 0 {
			t.Fatalf("batch %d: a lane took both jobs and waited alone for the other (%d waits expired)", b, n)
		}
		for i, res := range results {
			if res.ID != jobs[i].ID || res.Scores[0] != float64(3*i) {
				t.Fatalf("batch %d: result %d = %+v", b, i, res)
			}
		}
	}
	for i, c := range conns {
		if got := c.sendCount(); got != batches {
			t.Fatalf("lane %d sent %d jobs over %d batches, want one per batch", i, got, batches)
		}
	}
}

// TestPoolRequeuesInFlightJobOnCrash kills a connection with a job in
// flight: the first connection accepts one job and dies before serving
// it. That job must be requeued onto the redialed connection, and the
// batch must complete in order without falling back in-process.
func TestPoolRequeuesInFlightJobOnCrash(t *testing.T) {
	var first, second *scriptConn
	tr := &scriptTransport{mkConn: func(dial int) Conn {
		if dial == 1 {
			first = newScriptConn(0) // dies with its job in flight
			return first
		}
		second = newScriptConn(-1)
		return second
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
	crashed := first.sendLog()
	if len(crashed) != 1 {
		t.Fatalf("crashed connection had %d jobs sent, want the one in flight", len(crashed))
	}
	if !first.isClosed() {
		t.Fatal("the crashed connection was not closed")
	}
	if tr.dialCount() != 2 {
		t.Fatalf("%d dials, want the original and one redial", tr.dialCount())
	}
	if fallbacks != 0 {
		t.Fatalf("%d jobs fell back in-process; the requeue should have re-delivered the job", fallbacks)
	}
	redelivered := false
	for _, s := range second.sendLog() {
		redelivered = redelivered || s.id == crashed[0].id
	}
	if !redelivered || second.served != len(jobs) {
		t.Fatalf("redialed connection served %d jobs (requeued job %d sent: %v), want all %d", second.served, crashed[0].id, redelivered, len(jobs))
	}
}

// TestPoolReshipsConfigOnRedial gives the lane a first connection that
// sends its first job by hash alone although it never shipped the
// config: the worker session breaks, and the pool must requeue the job
// onto a redialed connection, which ships the config inline with its
// first job and sends the rest of the batch by hash.
func TestPoolReshipsConfigOnRedial(t *testing.T) {
	cfg := json.RawMessage(`{"Delta":1}`)
	var first, second *scriptConn
	tr := &scriptTransport{mkConn: func(dial int) Conn {
		c := newScriptConn(-1)
		if dial == 1 {
			c.stripAll = true
			first = c
		} else {
			second = c
		}
		return c
	}}
	pool := &Pool{Transports: []Transport{tr}, Fallback: func(job *Job) (*Result, error) {
		t.Error("fallback used; the redialed connection should serve the batch")
		return echoEval(job)
	}}
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
		if res.ID != jobs[i].ID || res.Scores[0] != float64(2*i) {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
	if tr.dialCount() != 2 || !first.isClosed() {
		t.Fatalf("%d dials (first closed: %v), want the broken session replaced once", tr.dialCount(), first.isClosed())
	}
	if got, want := fmt.Sprint(first.sendLog()), fmt.Sprint([]sendRecord{{id: 100}}); got != want {
		t.Fatalf("broken connection sends = %s, want %s", got, want)
	}
	// The requeued job went to the back of the queue.
	want := []sendRecord{{id: 101, inline: true}, {id: 102}, {id: 100}}
	if got := second.sendLog(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("redialed connection sends = %+v, want %+v", got, want)
	}
}

// TestPoolStartDialsLanesConcurrently gives Start two lanes whose
// dials each wait, with a deadline, for the other dial to begin: only
// a Start that dials its lanes at once gets both connections.
func TestPoolStartDialsLanesConcurrently(t *testing.T) {
	dials := newBarrier(2)
	pool := &Pool{Fallback: echoEval}
	for range 2 {
		pool.Transports = append(pool.Transports, &scriptTransport{mkConn: func(int) Conn {
			dials.arrive()
			if dials.wait(1, 2*time.Second) != nil {
				return nil
			}
			return newScriptConn(-1)
		}})
	}
	if err := pool.Start(); err != nil {
		t.Fatalf("lanes were dialed one after another: %v", err)
	}
	pool.Close()
}

// goroutineID reads the calling goroutine's number from the
// "goroutine N [running]:" header of its stack trace.
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// settledGoroutines counts goroutines once the count holds still for a
// millisecond, so one an earlier test left on its way out is not
// counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestPoolLaneZeroRunsOnTheCaller records the goroutine of every Dial,
// Send and Recv of a two-lane pool: lane 0's must all run on the
// goroutine that called Start and Do, lane 1's on another. A one-lane
// pool then starts no goroutine at all, from Start through twenty
// batches to Close.
func TestPoolLaneZeroRunsOnTheCaller(t *testing.T) {
	caller := goroutineID()
	var mu sync.Mutex
	ran := [2]map[string]bool{{}, {}} // lane → goroutines of its calls
	record := func(lane int) {
		mu.Lock()
		defer mu.Unlock()
		ran[lane][goroutineID()] = true
	}
	pool := &Pool{Fallback: func(job *Job) (*Result, error) {
		t.Error("fallback used; every lane is healthy")
		return echoEval(job)
	}}
	for i := range ran {
		pool.Transports = append(pool.Transports, &scriptTransport{mkConn: func(int) Conn {
			record(i)
			c := newScriptConn(-1)
			c.onSend = func() { record(i) }
			c.recvGate = func(int) error { record(i); return nil }
			return c
		}})
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if _, err := pool.Do(testJobs(2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Close()
	if len(ran[0]) != 1 || !ran[0][caller] {
		t.Fatalf("lane 0's calls ran on goroutines %v, want only the caller's (%s)", ran[0], caller)
	}
	if len(ran[1]) == 0 || ran[1][caller] {
		t.Fatalf("lane 1's calls ran on goroutines %v, want none on the caller's (%s)", ran[1], caller)
	}

	before := settledGoroutines()
	pool = &Pool{Transports: pool.Transports[:1], Fallback: echoEval}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("a one-lane pool's Start took the goroutine count from %d to %d", before, n)
	}
	for b := range 20 {
		if _, err := pool.Do(testJobs(3, 1)); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("batch %d of a one-lane pool: %d goroutines, want %d", b, n, before)
		}
	}
	pool.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("a one-lane pool's Close left %d goroutines, want %d", n, before)
	}
}

// cannedConn answers each job with a copy of a result built before the
// batch, decoded into the caller's Result the way a transport's Recv
// does: into the storage its slices already have.
type cannedConn struct {
	results map[uint64]*Result // read-only, shared by every lane
	last    uint64
}

func (c *cannedConn) Send(job *Job) error { c.last = job.ID; return nil }

func (c *cannedConn) Recv(_ time.Duration, res *Result) error {
	want := c.results[c.last]
	res.ID, res.Err, res.Cached = want.ID, want.Err, want.Cached
	res.Scores = append(res.Scores[:0], want.Scores...)
	res.Fired = append(res.Fired[:0], want.Fired...)
	return nil
}

func (c *cannedConn) Close() {}

// TestPoolDoAllocatesNothing pins a batch's cost to the pool: Do drives
// lane 0 itself and lanes 1… are goroutines that live from Start to
// Close, and each worker answer is received into the Result the pool
// keeps for its batch position, so after the first batch Do allocates
// nothing — the same for one lane and one job as for four lanes and
// sixteen jobs.
func TestPoolDoAllocatesNothing(t *testing.T) {
	for _, shape := range []struct{ lanes, jobs int }{{1, 1}, {2, 2}, {2, 8}, {4, 16}} {
		jobs := testJobs(shape.jobs, 1)
		results := make(map[uint64]*Result, len(jobs))
		for _, job := range jobs {
			results[job.ID] = &Result{ID: job.ID, Scores: []float64{float64(job.SlotLo)}}
		}
		pool := &Pool{Fallback: func(job *Job) (*Result, error) {
			t.Error("fallback used; every lane is healthy")
			return echoEval(job)
		}}
		for range shape.lanes {
			pool.Transports = append(pool.Transports, &scriptTransport{mkConn: func(int) Conn {
				return &cannedConn{results: results}
			}})
		}
		if err := pool.Start(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			got, err := pool.Do(jobs)
			if err != nil || len(got) != len(jobs) {
				t.Fatalf("batch = %v, %v", got, err)
			}
			for i, res := range got {
				if want := results[jobs[i].ID]; !resultsEqual(res, want) {
					t.Fatalf("job %d: result %+v, want %+v", i, res, want)
				}
			}
		})
		pool.Close()
		if allocs != 0 {
			t.Fatalf("%d lanes, %d jobs: %v allocations per batch, want none", shape.lanes, shape.jobs, allocs)
		}
	}
}

// TestPoolUnansweredHelloIsAFailedDial gives a lane connections whose
// worker never answers the hello (ErrNoHandshake from Recv). On the
// connection Start dialed, that fails the batch, as a failed dial at
// Start would have, with nothing evaluated in-process. On a redialed
// connection it is a failed redial: the job is requeued and the lane
// falls back in-process, and the batch completes.
func TestPoolUnansweredHelloIsAFailedDial(t *testing.T) {
	silent := func(int) error { return fmt.Errorf("script: read welcome: %w", ErrNoHandshake) }
	for _, redial := range []bool{false, true} {
		tr := &scriptTransport{mkConn: func(dial int) Conn {
			c := newScriptConn(-1)
			if redial && dial == 1 {
				c.serveBefore = 0 // dies with its first job in flight
			} else {
				c.recvGate = silent
			}
			return c
		}}
		fallbacks := 0
		pool := &Pool{Transports: []Transport{tr}, Fallback: func(job *Job) (*Result, error) {
			fallbacks++
			return echoEval(job)
		}}
		if err := pool.Start(); err != nil {
			t.Fatal(err)
		}
		results, err := pool.Do(testJobs(3, 1))
		pool.Close()
		switch {
		case !redial && (!errors.Is(err, ErrNoHandshake) || fallbacks != 0 || tr.dialCount() != 1):
			t.Fatalf("Start's connection: Do = %v, %d fallbacks, %d dials; want ErrNoHandshake, none, one", err, fallbacks, tr.dialCount())
		case redial && (err != nil || len(results) != 3 || fallbacks != 3 || tr.dialCount() != 2):
			t.Fatalf("redialed connection: Do = %v, %d fallbacks, %d dials; want the batch in-process after one redial", err, fallbacks, tr.dialCount())
		}
	}
}

// sharedJobs is a batch cut for lanes of shares (2, 1): job 0 covers
// two thirds of the slots and asks for two workers, job 1 the rest
// with one.
func sharedJobs() []*Job {
	jobs := testJobs(2, 1)
	jobs[0].SlotLo, jobs[0].SlotHi, jobs[0].Workers = 0, 4, 2
	jobs[1].SlotLo, jobs[1].SlotHi, jobs[1].Workers = 4, 6, 1
	return jobs
}

// encodedResults renders a batch's results in the binary codec, for a
// byte-exact comparison.
func encodedResults(t *testing.T, results []*Result) [][]byte {
	t.Helper()
	out := make([][]byte, len(results))
	for i, res := range results {
		b, err := EncodeResult(res, true)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestPoolHandsEachLaneItsOwnJob runs batches cut for lanes of shares
// (2, 1) with a slow larger lane, so the smaller one is always free
// first: a pool that handed jobs to whichever lane woke first would
// give it the larger job. On the fault-free path job i must go to
// lane i, batch after batch.
func TestPoolHandsEachLaneItsOwnJob(t *testing.T) {
	const batches = 20
	pool := &Pool{Fallback: func(job *Job) (*Result, error) {
		t.Error("fallback used; every lane is healthy")
		return echoEval(job)
	}}
	conns := []*scriptConn{newScriptConn(-1), newScriptConn(-1)}
	conns[0].recvGate = func(int) error { time.Sleep(time.Millisecond); return nil }
	for _, c := range conns {
		pool.Transports = append(pool.Transports, &scriptTransport{mkConn: func(int) Conn { return c }})
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for b := range batches {
		jobs := sharedJobs()
		results, err := pool.Do(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range conns {
			if log := c.sendLog(); len(log) != b+1 || log[b].id != jobs[i].ID {
				t.Fatalf("batch %d: lane %d sent %v, want job %d last", b, i, log, jobs[i].ID)
			}
		}
		for i, res := range results {
			if res.ID != jobs[i].ID || len(res.Scores) != jobs[i].SlotHi-jobs[i].SlotLo {
				t.Fatalf("batch %d: result %d = %+v", b, i, res)
			}
		}
	}
}

// TestPoolRequeuesLargerLanesJobToTheOther kills the larger lane's
// connection of a (2, 1) batch with its job in flight and holds that
// lane's redial until the other lane has sent two jobs: the requeued
// job must go to the smaller lane, which is free, and the batch's
// results must be byte-equal to a fault-free batch's.
func TestPoolRequeuesLargerLanesJobToTheOther(t *testing.T) {
	want := make([]*Result, 0, 2)
	for _, job := range sharedJobs() {
		res, _ := echoEval(job)
		res.ID = job.ID
		want = append(want, res)
	}
	took := make(chan struct{})
	small := newScriptConn(-1)
	small.onSend = func() {
		if len(small.sends) == 2 {
			close(took)
		}
	}
	var crashed *scriptConn
	large := &scriptTransport{mkConn: func(dial int) Conn {
		if dial == 1 {
			crashed = newScriptConn(0) // dies with its job in flight
			return crashed
		}
		select {
		case <-took:
		case <-time.After(2 * time.Second):
		}
		return newScriptConn(-1)
	}}
	pool := &Pool{
		Transports: []Transport{large, &scriptTransport{mkConn: func(int) Conn { return small }}},
		Fallback: func(job *Job) (*Result, error) {
			t.Error("fallback used; the requeue should have re-delivered the job")
			return echoEval(job)
		},
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jobs := sharedJobs()
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantLog := fmt.Sprint(small.sendLog()), fmt.Sprint([]sendRecord{{id: jobs[1].ID}, {id: jobs[0].ID}}); got != wantLog {
		t.Fatalf("smaller lane sent %s, want its own job, then the requeued one: %s", got, wantLog)
	}
	if got := crashed.sendLog(); len(got) != 1 || got[0].id != jobs[0].ID {
		t.Fatalf("larger lane's first connection sent %v, want its own job", got)
	}
	if got, w := encodedResults(t, results), encodedResults(t, want); fmt.Sprint(got) != fmt.Sprint(w) {
		t.Fatal("a requeued batch's results differ from a fault-free batch's")
	}
}

// TestPoolRequeueWakesTheCallersLane kills lane 1's connection with
// its job in flight after lane 0, which Do's caller drives, has served
// its own job and gone idle, and holds lane 1's redial until lane 0
// has sent two jobs: the requeue must wake the caller, who waits on
// the same Cond as the lane goroutines, to take the job.
func TestPoolRequeueWakesTheCallersLane(t *testing.T) {
	took := make(chan struct{})
	caller := newScriptConn(-1)
	caller.onSend = func() {
		if len(caller.sends) == 2 {
			close(took)
		}
	}
	var crashed *scriptConn
	other := &scriptTransport{mkConn: func(dial int) Conn {
		if dial == 1 {
			crashed = newScriptConn(0) // dies with its job in flight
			crashed.recvGate = func(int) error {
				for deadline := time.Now().Add(2 * time.Second); caller.sendCount() == 0 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(5 * time.Millisecond)
				return nil
			}
			return crashed
		}
		select {
		case <-took:
		case <-time.After(2 * time.Second):
		}
		return newScriptConn(-1)
	}}
	pool := &Pool{
		Transports: []Transport{&scriptTransport{mkConn: func(int) Conn { return caller }}, other},
		Fallback: func(job *Job) (*Result, error) {
			t.Error("fallback used; the requeue should have re-delivered the job")
			return echoEval(job)
		},
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jobs := sharedJobs()
	if _, err := pool.Do(jobs); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(caller.sendLog()), fmt.Sprint([]sendRecord{{id: jobs[0].ID}, {id: jobs[1].ID}}); got != want {
		t.Fatalf("the caller's lane sent %s, want its own job, then the requeued one: %s", got, want)
	}
	if got := crashed.sendLog(); len(got) != 1 || got[0].id != jobs[1].ID {
		t.Fatalf("lane 1's first connection sent %v, want its own job", got)
	}
}
