package shardnet

import (
	"crypto/sha256"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"learnability/internal/remy/shard"
)

// echoEval returns a recognizable per-slot score (float64 of the slot
// index), mirroring the shard package's test evaluator.
func echoEval(job *shard.Job) (*shard.Result, error) {
	scores := make([]float64, job.SlotHi-job.SlotLo)
	for i := range scores {
		scores[i] = float64(job.SlotLo + i)
	}
	return &shard.Result{Scores: scores}, nil
}

// startServer serves srv on a fresh loopback listener and returns its
// address; the listener is closed at test cleanup.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return ln.Addr().String()
}

func testJobs(n, slotsPer int) []*shard.Job {
	jobs := make([]*shard.Job, n)
	for i := range jobs {
		jobs[i] = &shard.Job{
			ID:      uint64(100 + i),
			Version: shard.ProtocolVersion,
			SlotLo:  i * slotsPer,
			SlotHi:  (i + 1) * slotsPer,
		}
	}
	return jobs
}

func TestPoolOverTCP(t *testing.T) {
	addr := startServer(t, &Server{Eval: echoEval})
	pool := &shard.Pool{
		Transports: []shard.Transport{&Dialer{Addr: addr}, &Dialer{Addr: addr}},
		Fallback: func(job *shard.Job) (*shard.Result, error) {
			t.Error("fallback used; jobs should cross TCP")
			return echoEval(job)
		},
	}
	if err := pool.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer pool.Close()
	if pool.NumLanes() != 2 {
		t.Fatalf("NumLanes = %d, want 2 (remote-only pool)", pool.NumLanes())
	}
	jobs := testJobs(8, 3)
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	for i, res := range results {
		if res.ID != jobs[i].ID || res.Scores[0] != float64(3*i) {
			t.Fatalf("result %d = %+v (merge order or routing broken)", i, res)
		}
	}
}

func TestHandshakeVersionMismatchRejected(t *testing.T) {
	// A stale worker (different protocol version) must be rejected at
	// dial time — before any job can be miscomputed — with a reason
	// naming both versions.
	addr := startServer(t, &Server{Eval: echoEval, Version: shard.ProtocolVersion + 1})
	d := &Dialer{Addr: addr}
	conn, err := d.Dial()
	if err == nil {
		conn.Close()
		t.Fatal("dial succeeded against a version-mismatched worker")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("mismatch error does not name the version: %v", err)
	}
	// And the pool surfaces it loudly at Start, not as silent
	// degradation.
	pool := &shard.Pool{Transports: []shard.Transport{d}, Fallback: echoEval}
	if err := pool.Start(); err == nil {
		pool.Close()
		t.Fatal("pool.Start accepted a version-mismatched worker")
	}
}

func TestHandshakeBadMagicRejected(t *testing.T) {
	addr := startServer(t, &Server{Eval: echoEval})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := shard.WriteFrame(nc, &hello{Magic: "not-shardnet", Version: shard.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	var w welcome
	if err := shard.ReadFrame(nc, &w); err != nil {
		t.Fatalf("read welcome: %v", err)
	}
	if w.OK {
		t.Fatal("server welcomed a client with the wrong magic")
	}
}

// TestTruncatedResultFrame cuts the connection mid-frame on the server
// side: the client's pending RoundTrip must fail with an error (the
// pool's requeue trigger), never hang or return a partial result.
func TestTruncatedResultFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var h hello
		shard.ReadFrame(nc, &h)
		shard.WriteFrame(nc, &welcome{Magic: Magic, Version: h.Version, OK: true})
		shard.ReadPayload(nc) // consume the job frame (codec irrelevant here)
		// Promise a 64-byte frame, deliver 4 bytes, hang up.
		nc.Write([]byte{0, 0, 0, 64, 'x', 'x', 'x', 'x'})
	}()

	conn, err := (&Dialer{Addr: ln.Addr().String()}).Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := shard.RoundTrip(conn, testJobs(1, 1)[0], time.Second); err == nil {
		t.Fatal("RoundTrip returned a result from a truncated frame")
	}
}

// TestClientRejectsJSONResultFrame pins the one result wire on the
// client side: after the handshake the only JSON frame a worker may
// send is a heartbeat, so a result wrapped in a JSON reply (what a
// pre-single-wire worker would answer) fails the connection instead of
// being decoded.
func TestClientRejectsJSONResultFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var h hello
		shard.ReadFrame(nc, &h)
		shard.WriteFrame(nc, &welcome{Magic: Magic, Version: h.Version, OK: true})
		shard.ReadPayload(nc) // consume the job frame
		shard.WriteFrame(nc, map[string]any{"kind": "result", "result": &shard.Result{ID: 100, Scores: []float64{1}}})
	}()

	conn, err := (&Dialer{Addr: ln.Addr().String()}).Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if res, err := shard.RoundTrip(conn, testJobs(1, 1)[0], time.Second); err == nil {
		t.Fatalf("RoundTrip accepted a JSON-wrapped result: %+v", res)
	}
}

// TestTruncatedJobFrame cuts a job frame mid-payload on the client
// side: the server must drop that session and stay healthy for the
// next connection.
func TestTruncatedJobFrame(t *testing.T) {
	addr := startServer(t, &Server{Eval: echoEval})
	nc := handshake(t, addr)
	nc.Write([]byte{0, 0, 1, 0, 'g', 'a', 'r'}) // 256-byte promise, 3 bytes, hang up
	nc.Close()

	// The server survives: a fresh connection still serves jobs.
	conn, err := (&Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatalf("dial after truncation: %v", err)
	}
	defer conn.Close()
	res, err := shard.RoundTrip(conn, testJobs(1, 2)[0], time.Second)
	if err != nil || len(res.Scores) != 2 {
		t.Fatalf("post-truncation round-trip: %v, %+v", err, res)
	}
}

// handshake dials addr with a raw socket and completes the client
// handshake, for tests that write frames by hand.
func handshake(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := shard.WriteFrame(nc, &hello{Magic: Magic, Version: shard.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	var w welcome
	if err := shard.ReadFrame(nc, &w); err != nil || !w.OK {
		t.Fatalf("handshake: %v, ok=%v", err, w.OK)
	}
	return nc
}

// TestServerAnswersJSONJobInBinary pins the one result wire on the
// server side: the job decoder still accepts a JSON-encoded job (the
// codec tests' oracle encoding), but the worker never echoes that
// codec back — the answer is a binary frame.
func TestServerAnswersJSONJobInBinary(t *testing.T) {
	nc := handshake(t, startServer(t, &Server{Eval: echoEval}))
	if err := shard.WriteFrame(nc, testJobs(1, 2)[0]); err != nil {
		t.Fatal(err)
	}
	payload, err := shard.ReadPayload(nc)
	if err != nil {
		t.Fatal(err)
	}
	if shard.IsJSONPayload(payload) {
		t.Fatalf("worker answered a JSON job in JSON: %s", payload)
	}
	if res, err := shard.DecodeResult(payload); err != nil || res.ID != 100 || len(res.Scores) != 2 {
		t.Fatalf("binary answer = %+v, %v", res, err)
	}
}

// TestServerRejectsJobVersionMismatch sends a job of another protocol
// version over a connection whose handshake succeeded: the server must
// answer it with an error result without evaluating it, and keep
// serving the connection.
func TestServerRejectsJobVersionMismatch(t *testing.T) {
	var evals atomic.Int64
	counting := func(job *shard.Job) (*shard.Result, error) {
		evals.Add(1)
		return echoEval(job)
	}
	conn, err := (&Dialer{Addr: startServer(t, &Server{Eval: counting})}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	jobs := testJobs(2, 1)
	jobs[0].Version = shard.ProtocolVersion + 1
	res, err := shard.RoundTrip(conn, jobs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != jobs[0].ID || !strings.Contains(res.Err, "version") {
		t.Fatalf("version-mismatched job answered %+v, want an error naming the version", res)
	}
	if evals.Load() != 0 {
		t.Fatal("the server evaluated a version-mismatched job")
	}
	if res, err := shard.RoundTrip(conn, jobs[1], time.Second); err != nil || res.Err != "" || len(res.Scores) != 1 {
		t.Fatalf("next job on the same connection = %+v, %v", res, err)
	}
}

// TestTCPConnShipsCfgOnce checks the coordinator half of
// config-by-hash: a connection ships a config blob once, strips it
// from every later job with the same hash (without mutating the
// caller's job), and re-ships it on a forced refetch; a job without a
// hash always carries its config.
func TestTCPConnShipsCfgOnce(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	c := &tcpConn{nc: client, sent: map[shard.Hash]bool{}}
	defer c.Close()

	cfg := []byte(`{"Delta":1}`)
	job := &shard.Job{ID: 1, CfgHash: shard.HashBytes(cfg), Cfg: cfg}
	hashless := &shard.Job{ID: 2, Cfg: cfg}
	sends := []struct {
		job    *shard.Job
		force  bool
		inline bool
	}{
		{job, false, true},
		{job, false, false},
		{job, true, true},
		{hashless, false, true},
		{hashless, false, true},
	}
	errs := make(chan error, 1)
	go func() {
		for _, s := range sends {
			if err := c.Send(s.job, s.force); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i, s := range sends {
		payload, err := shard.ReadPayload(server)
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		wire, _, err := shard.DecodeJob(payload)
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if inline := len(wire.Cfg) > 0; inline != s.inline {
			t.Fatalf("send %d carried the config inline = %v, want %v", i, inline, s.inline)
		}
		if wire.ID != s.job.ID || wire.CfgHash != s.job.CfgHash {
			t.Fatalf("send %d arrived as job %d hash %s", i, wire.ID, wire.CfgHash)
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if len(job.Cfg) == 0 {
		t.Fatal("Send stripped the caller's job")
	}
}

// TestHeartbeatKeepsSlowJobAlive proves the timeout bounds silence,
// not job length: a job 5x longer than the timeout completes because
// the worker heartbeats through it, while the same job against a
// non-heartbeating worker trips the deadline.
func TestHeartbeatKeepsSlowJobAlive(t *testing.T) {
	slowEval := func(job *shard.Job) (*shard.Result, error) {
		time.Sleep(500 * time.Millisecond)
		return echoEval(job)
	}
	addr := startServer(t, &Server{Eval: slowEval, Heartbeat: 20 * time.Millisecond})
	conn, err := (&Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := shard.RoundTrip(conn, testJobs(1, 1)[0], 100*time.Millisecond); err != nil {
		t.Fatalf("heartbeats did not keep the slow job alive: %v", err)
	}

	// A worker that advertises a heartbeat and then goes silent (hung
	// mid-job, no heartbeats, no result) trips the deadline.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go func() {
		nc, err := ln2.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var h hello
		shard.ReadFrame(nc, &h)
		shard.WriteFrame(nc, &welcome{Magic: Magic, Version: h.Version, OK: true, HeartbeatMillis: 10})
		shard.ReadPayload(nc)       // consume the job frame
		time.Sleep(5 * time.Second) // hung: never heartbeats, never replies
	}()
	conn2, err := (&Dialer{Addr: ln2.Addr().String()}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	start := time.Now()
	if _, err := shard.RoundTrip(conn2, testJobs(1, 1)[0], 100*time.Millisecond); err == nil {
		t.Fatal("silent worker did not trip the per-job timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline not enforced", elapsed)
	}
}

// TestTimeoutClampedToHeartbeat pins the silence-bound floor: a
// timeout below twice the worker's advertised heartbeat interval is
// raised to it, so a misconfigured -shard-timeout cannot make every
// remote job time out and silently degrade the pool to in-process
// evaluation.
func TestTimeoutClampedToHeartbeat(t *testing.T) {
	slowEval := func(job *shard.Job) (*shard.Result, error) {
		time.Sleep(300 * time.Millisecond)
		return echoEval(job)
	}
	// Heartbeat 250ms: the first heartbeat lands after a 50ms timeout
	// would have expired, so only the 2x-heartbeat clamp saves the job.
	addr := startServer(t, &Server{Eval: slowEval, Heartbeat: 250 * time.Millisecond})
	conn, err := (&Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := shard.RoundTrip(conn, testJobs(1, 1)[0], 50*time.Millisecond); err != nil {
		t.Fatalf("timeout below the heartbeat interval was not clamped: %v", err)
	}
}

func TestServerDieAfterReconnectAndRequeue(t *testing.T) {
	// Every connection dies after two jobs (the third is read and
	// dropped mid-flight), so the pool must reconnect and requeue
	// repeatedly; the batch still completes in order without the
	// fallback.
	var evals atomic.Int64
	counting := func(job *shard.Job) (*shard.Result, error) {
		evals.Add(1)
		return echoEval(job)
	}
	addr := startServer(t, &Server{Eval: counting, DieAfter: 2})
	pool := &shard.Pool{
		Transports: []shard.Transport{&Dialer{Addr: addr}},
		Fallback:   echoEval,
		Timeout:    5 * time.Second,
		// Generous: each delivery that dies mid-flight burns an
		// attempt, and the batch needs several reconnect cycles.
		MaxAttempts: 10,
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jobs := testJobs(7, 2)
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	for i, res := range results {
		if res.ID != jobs[i].ID || res.Scores[0] != float64(2*i) {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
	if evals.Load() < int64(len(jobs)) {
		t.Fatalf("server evaluated %d jobs, want at least %d", evals.Load(), len(jobs))
	}
}

// limitListener accepts at most n connections, then closes; redials
// against it fail, which is how tests simulate a worker machine that
// is gone for good.
type limitListener struct {
	net.Listener
	left atomic.Int64
}

func (l *limitListener) Accept() (net.Conn, error) {
	if l.left.Add(-1) < 0 {
		l.Listener.Close()
		return nil, net.ErrClosed
	}
	return l.Listener.Accept()
}

func TestPoolFallsBackWhenWorkerGoneForGood(t *testing.T) {
	// One connection is all the worker ever grants; it dies after one
	// job. The redial fails, the lane is marked dead, and the rest of
	// the batch completes through the in-process fallback — the same
	// bits, just computed locally.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lim := &limitListener{Listener: ln}
	lim.left.Store(1)
	srv := &Server{Eval: echoEval, DieAfter: 1}
	go srv.Serve(lim)
	t.Cleanup(func() { ln.Close() })

	pool := &shard.Pool{
		Transports: []shard.Transport{&Dialer{Addr: ln.Addr().String(), DialTimeout: time.Second}},
		Fallback:   echoEval,
		Timeout:    5 * time.Second,
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jobs := testJobs(5, 1)
	results, err := pool.Do(jobs)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	for i, res := range results {
		if res.ID != jobs[i].ID {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
}

// cachingEval wraps an evaluator with a Cache the way
// remy.CachedShardEval does (keying lives in remy; here a simple
// slot-range key suffices): hits set Result.Cached, which the server
// must tally and carry across the wire.
func cachingEval(c *Cache, evals *atomic.Int64) shard.Eval {
	return func(job *shard.Job) (*shard.Result, error) {
		key := Key(sha256.Sum256([]byte{byte(job.SlotLo), byte(job.SlotHi)}))
		if b, ok := c.Get(key); ok {
			scores := make([]float64, len(b))
			for i, v := range b {
				scores[i] = float64(v)
			}
			return &shard.Result{Scores: scores, Cached: true}, nil
		}
		evals.Add(1)
		res, err := echoEval(job)
		if err != nil {
			return nil, err
		}
		stored := make([]byte, len(res.Scores))
		for i, s := range res.Scores {
			stored[i] = byte(s)
		}
		c.Put(key, stored)
		return res, nil
	}
}

func TestCacheServesRepeatVerbatim(t *testing.T) {
	var evals atomic.Int64
	srv := &Server{Eval: cachingEval(NewCache(0), &evals)}
	addr := startServer(t, srv)
	conn, err := (&Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	job := testJobs(1, 3)[0]
	first, err := shard.RoundTrip(conn, job, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first evaluation reported as cached")
	}
	// Same content, new dispatch ID and different Workers: must hit.
	repeat := *job
	repeat.ID = 999
	repeat.Workers = 8
	second, err := shard.RoundTrip(conn, &repeat, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat evaluation missed the cache")
	}
	if second.ID != repeat.ID {
		t.Fatalf("cached result has ID %d, want %d", second.ID, repeat.ID)
	}
	if len(second.Scores) != len(first.Scores) {
		t.Fatalf("cached scores %v, fresh scores %v", second.Scores, first.Scores)
	}
	for i := range first.Scores {
		if second.Scores[i] != first.Scores[i] {
			t.Fatalf("slot %d: cached %v, fresh %v", i, second.Scores[i], first.Scores[i])
		}
	}
	if evals.Load() != 1 {
		t.Fatalf("evaluator ran %d times, want 1", evals.Load())
	}
	// The server counts a job after it has written the reply, so the
	// second one may not be in Stats yet when the reply arrives here.
	for deadline := time.Now().Add(time.Second); srv.Stats().Jobs < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.CacheHits != 1 || st.Jobs != 2 {
		t.Fatalf("server stats = %+v", st)
	}
}

// TestConfigByHashRefetch drives the whole config-by-hash lifecycle on
// one connection: first job ships the blob inline, the second goes
// hash-only and resolves from the server's store, and after the store
// is flushed (a daemon that lost its state) the third job triggers the
// NeedCfg refetch, which RoundTrip resolves transparently.
func TestConfigByHashRefetch(t *testing.T) {
	var sawCfg atomic.Int64
	checking := func(job *shard.Job) (*shard.Result, error) {
		if len(job.Cfg) > 0 {
			sawCfg.Add(1)
		}
		return echoEval(job)
	}
	srv := &Server{Eval: checking}
	addr := startServer(t, srv)
	conn, err := (&Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cfg := []byte(`{"Delta":1}`)
	jobs := testJobs(3, 2)
	for _, job := range jobs {
		job.Cfg = cfg
		job.CfgHash = shard.HashBytes(cfg)
	}
	for i, job := range jobs {
		if i == 2 {
			srv.FlushConfigs()
		}
		res, err := shard.RoundTrip(conn, job, time.Second)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.ID != job.ID || len(res.Scores) != 2 {
			t.Fatalf("job %d result = %+v", i, res)
		}
	}
	// Every evaluation saw a resolved config: inline (jobs 0 and 2,
	// the latter via refetch) or from the store (job 1).
	if sawCfg.Load() != 3 {
		t.Fatalf("evaluator saw a config %d times, want 3", sawCfg.Load())
	}
	if st := srv.Stats(); st.Jobs != 3 {
		t.Fatalf("server answered %d jobs, want 3 (NeedCfg must not count)", st.Jobs)
	}
}

// TestCachePoisoningGuard corrupts a stored entry in place: Get must
// detect the result-hash mismatch, evict the entry, and report a miss
// instead of serving poisoned bytes.
func TestCachePoisoningGuard(t *testing.T) {
	c := NewCache(8)
	key := Key(sha256.Sum256([]byte("job")))
	c.Put(key, []byte(`{"scores":[1,2,3]}`))
	if _, ok := c.Get(key); !ok {
		t.Fatal("fresh entry missed")
	}
	c.entries[key].res[2] = 'X' // flip a stored byte behind the cache's back
	if _, ok := c.Get(key); ok {
		t.Fatal("poisoned entry was served")
	}
	st := c.Stats()
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	if st.Entries != 0 {
		t.Fatalf("poisoned entry not evicted: %d entries", st.Entries)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	k := func(s string) Key { return sha256.Sum256([]byte(s)) }
	c.Put(k("a"), []byte("ra"))
	c.Put(k("b"), []byte("rb"))
	c.Put(k("c"), []byte("rc")) // evicts the oldest ("a")
	if _, ok := c.Get(k("a")); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Get(k("b")); !ok {
		t.Fatal("entry b evicted early")
	}
	if _, ok := c.Get(k("c")); !ok {
		t.Fatal("entry c missing")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("Entries = %d, want 2", st.Entries)
	}
}
