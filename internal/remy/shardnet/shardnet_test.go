package shardnet

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"learnability/internal/remy/shard"
	"learnability/internal/telemetry"
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
// address. Test cleanup closes the listener and waits for Serve to
// return, which ends its sessions, so a later test that gets the same
// port cannot reach this server through a parked connection.
func startServer(t testing.TB, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
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

// BenchmarkPoolDo times one pool batch over loopback TCP: one cheap
// job per lane, each lane its own worker, so an operation is the
// batch's round trips and the pool's hand-offs with no simulation in
// them. lanes=1 is a one-address `remytrain -remotes` run; lanes=2 and
// lanes=4 are runs with as many distinct addresses.
func BenchmarkPoolDo(b *testing.B) {
	for _, lanes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			transports := make([]shard.Transport, lanes)
			for i := range transports {
				transports[i] = &Dialer{Addr: startServer(b, &Server{Eval: echoEval})}
			}
			pool := &shard.Pool{Transports: transports, Fallback: echoEval}
			if err := pool.Start(); err != nil {
				b.Fatalf("start: %v", err)
			}
			defer pool.Close()
			jobs := testJobs(lanes, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := pool.Do(jobs); err != nil {
					b.Fatalf("do: %v", err)
				}
			}
		})
	}
}

// TestHandshakeVersionMismatchRejected turns away peers of another
// protocol version at the handshake, before any job can be
// miscomputed: a worker answers a newer client's hello with a refusal
// naming both versions. A Dialer facing a worker of the previous
// version, which refuses it the same way, connects — the hello rides
// the first job — and the pool's first batch fails on the refusal,
// naming both versions, with no job requeued or evaluated in-process;
// the next batch fails the same way. A dead address still fails at
// pool Start.
func TestHandshakeVersionMismatchRejected(t *testing.T) {
	nc, err := net.Dial("tcp", startServer(t, &Server{Eval: echoEval}))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := shard.WriteFrame(nc, &hello{Magic: Magic, Version: shard.ProtocolVersion + 1}); err != nil {
		t.Fatal(err)
	}
	var w welcome
	if err := shard.ReadFrame(nc, &w); err != nil {
		t.Fatalf("read welcome: %v", err)
	}
	if w.OK || w.Version != shard.ProtocolVersion || !strings.Contains(w.Reason, "version") {
		t.Fatalf("welcome to a v%d client = %+v, want a refusal naming the versions", shard.ProtocolVersion+1, w)
	}

	old := shard.ProtocolVersion - 1
	addr := startPeer(t, frame(t, &welcome{Magic: Magic, Version: old,
		Reason: fmt.Sprintf("protocol version %d, worker speaks %d", shard.ProtocolVersion, old)}))
	err = requireRejectedBatch(t, addr)
	for _, v := range []int{old, shard.ProtocolVersion} {
		if !strings.Contains(err.Error(), fmt.Sprintf("v%d", v)) {
			t.Fatalf("mismatch error does not name v%d: %v", v, err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	pool := &shard.Pool{Transports: []shard.Transport{&Dialer{Addr: dead}}, Fallback: echoEval}
	if err := pool.Start(); err == nil {
		pool.Close()
		t.Fatalf("pool.Start accepted a dead address")
	}
}

// TestHandshakeBadMagicRejected turns away a client with the wrong
// magic at the worker, and a peer that answers with the wrong magic,
// or with no welcome at all, at the pool's first batch.
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

	for _, answer := range []any{
		&welcome{Magic: "not-shardnet", Version: shard.ProtocolVersion, OK: true},
		&shard.Result{ID: 100, Scores: []float64{1}},
	} {
		addr := startPeer(t, frame(t, answer))
		if err := requireRejectedBatch(t, addr); !strings.Contains(err.Error(), "not a shardnet worker") {
			t.Fatalf("answer %T: error %v, want it to say the peer is no worker", answer, err)
		}
	}
}

// TestRefusalOutlivesPipelinedJob refuses a client whose first job,
// written behind the hello, is far larger than the session's first
// read. The worker must deliver the refusal and then end-of-stream, not
// a reset, which could discard the refusal before the client reads it;
// and it must take the whole first write.
func TestRefusalOutlivesPipelinedJob(t *testing.T) {
	nc, err := net.Dial("tcp", startServer(t, &Server{Eval: echoEval}))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	cfg := make([]byte, 16*readBufSize)
	job := testJobs(1, 1)[0]
	job.Cfg, job.CfgHash = cfg, shard.HashBytes(cfg)
	first := append(frame(t, &hello{Magic: Magic, Version: shard.ProtocolVersion + 1}), frame(t, job)...)
	wrote := make(chan error, 1)
	go func() {
		_, err := nc.Write(first)
		wrote <- err
	}()
	br := bufio.NewReader(nc)
	var w welcome
	if err := shard.ReadFrame(br, &w); err != nil {
		t.Fatalf("read welcome: %v", err)
	}
	if w.OK || !strings.Contains(w.Reason, "version") {
		t.Fatalf("welcome = %+v, want a refusal", w)
	}
	if n, err := br.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the refusal: read %d bytes, %v; want end-of-stream", n, err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("the worker did not take the first write (%d bytes): %v", len(first), err)
	}
}

// TestUnansweredHelloFailsFirstBatch points a pool at a peer that
// accepts and hangs up without a welcome: the connection Start made
// never came up, so the first batch fails with shard.ErrNoHandshake,
// as Start failed when it read the welcome itself, and nothing is
// evaluated in-process.
func TestUnansweredHelloFailsFirstBatch(t *testing.T) {
	addr := startPeer(t, nil)
	reg := telemetry.NewRegistry()
	pool := &shard.Pool{Transports: []shard.Transport{&Dialer{Addr: addr}}, Fallback: echoEval, Metrics: reg}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if res, err := pool.Do(testJobs(2, 1)); !errors.Is(err, shard.ErrNoHandshake) {
		t.Fatalf("Do = %v, %v; want shard.ErrNoHandshake", res, err)
	}
	if n := reg.Counter(`shard_lane_fallbacks_total{lane="0:` + addr + `"}`).Value(); n != 0 {
		t.Fatalf("%d jobs evaluated in-process", n)
	}
}

// startPeer serves a scripted handshake on a loopback listener: each
// connection's hello is read (with whatever the client wrote behind
// it, as a worker's session reader takes it), answer is written, and
// the connection is closed. It returns the address.
func startPeer(t *testing.T, answer []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			var h hello
			shard.ReadFrame(bufio.NewReaderSize(nc, readBufSize), &h)
			nc.Write(answer)
			nc.Close()
		}
	}()
	return ln.Addr().String()
}

// requireRejectedBatch starts a one-lane pool against addr, which must
// succeed, and requires its first two batches to fail with a
// shard.RejectedError and nothing evaluated in-process. It returns the
// first batch's error.
func requireRejectedBatch(t *testing.T, addr string) error {
	t.Helper()
	reg := telemetry.NewRegistry()
	pool := &shard.Pool{
		Transports: []shard.Transport{&Dialer{Addr: addr}},
		Fallback:   echoEval,
		Timeout:    5 * time.Second,
		Metrics:    reg,
	}
	if err := pool.Start(); err != nil {
		t.Fatalf("pool.Start: %v (Dial only connects)", err)
	}
	defer pool.Close()
	var first error
	for batch := range 2 {
		res, err := pool.Do(testJobs(2, 1))
		var rej *shard.RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("batch %d = %v, %v; want a shard.RejectedError", batch, res, err)
		}
		if first == nil {
			first = err
		}
	}
	lane := `{lane="0:` + addr + `"}`
	for _, name := range []string{"shard_lane_fallbacks_total", "shard_lane_requeues_total"} {
		if n := reg.Counter(name + lane).Value(); n != 0 {
			t.Fatalf("%s = %d after a rejected handshake, want 0", name, n)
		}
	}
	return first
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

// TestServerRefusesJSONJob writes a JSON-encoded job (the codec
// tests' oracle encoding) on a handshaken session: a worker reads
// binary jobs only, so the session ends without an answer and the job
// never reaches the evaluator.
func TestServerRefusesJSONJob(t *testing.T) {
	var evals atomic.Int64
	counting := func(job *shard.Job) (*shard.Result, error) {
		evals.Add(1)
		return echoEval(job)
	}
	nc := handshake(t, startServer(t, &Server{Eval: counting}))
	if err := shard.WriteFrame(nc, testJobs(1, 2)[0]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if payload, err := shard.ReadPayload(nc); err != io.EOF {
		t.Fatalf("worker answered a JSON job with %q, %v; want end-of-stream", payload, err)
	}
	if evals.Load() != 0 {
		t.Fatal("the server evaluated a JSON job")
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
// config-by-hash: a connection sends a job by hash alone only when its
// config is the one the connection shipped last, so configs A, A, B, A
// cross inline, stripped, inline, inline — and it never strips the
// caller's job. A job without a hash always carries its config.
func TestTCPConnShipsCfgOnce(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	c := &tcpConn{nc: client}
	defer c.Close()

	cfgA, cfgB := []byte(`{"Delta":1}`), []byte(`{"Delta":2}`)
	a := &shard.Job{ID: 1, CfgHash: shard.HashBytes(cfgA), Cfg: cfgA}
	b := &shard.Job{ID: 2, CfgHash: shard.HashBytes(cfgB), Cfg: cfgB}
	hashless := &shard.Job{ID: 3, Cfg: cfgA}
	sends := []struct {
		job    *shard.Job
		inline bool
	}{
		{a, true},
		{a, false},
		{b, true},
		{a, true},
		{hashless, true},
		{hashless, true},
		{a, false},
	}
	errs := make(chan error, 1)
	go func() {
		for _, s := range sends {
			if err := c.Send(s.job); err != nil {
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
	if len(a.Cfg) == 0 || len(b.Cfg) == 0 {
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

// TestHeartbeatsOnlyWhileBusy pins the session's one ticker to job
// time: it heartbeats through a slow job and writes nothing while the
// connection idles between jobs.
func TestHeartbeatsOnlyWhileBusy(t *testing.T) {
	slowEval := func(job *shard.Job) (*shard.Result, error) {
		time.Sleep(60 * time.Millisecond)
		return echoEval(job)
	}
	reg := telemetry.NewRegistry()
	addr := startServer(t, &Server{Eval: slowEval, Heartbeat: 5 * time.Millisecond, Metrics: reg})
	conn, err := (&Dialer{Addr: addr}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := shard.RoundTrip(conn, testJobs(1, 1)[0], time.Second); err != nil {
		t.Fatal(err)
	}
	beats := reg.Counter("shardnet_server_heartbeats_total")
	time.Sleep(20 * time.Millisecond) // let the last tick's count land
	during := beats.Value()
	if during == 0 {
		t.Fatal("no heartbeat during a job twelve intervals long")
	}
	time.Sleep(60 * time.Millisecond)
	if idle := beats.Value() - during; idle != 0 {
		t.Fatalf("%d heartbeats while the connection idled", idle)
	}
}

func TestServerDieAfterReconnectAndRequeue(t *testing.T) {
	// Every connection dies after two jobs (the third is read and
	// dropped mid-flight), so the pool must reconnect and requeue
	// repeatedly; the batch still completes in order without the
	// fallback. No job needs more than the pool's three deliveries:
	// the one dropped twice is served by the fourth connection.
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

// limitListener accepts at most n connections, then stops listening;
// redials against it fail, which is how tests simulate a worker machine
// that is gone for good. Its next Accept waits for done, so Serve,
// which ends its sessions when it returns, keeps the ones it accepted
// until their own ends.
type limitListener struct {
	net.Listener
	left atomic.Int64
	done chan struct{}
}

func (l *limitListener) Accept() (net.Conn, error) {
	if l.left.Add(-1) < 0 {
		l.Listener.Close()
		<-l.done
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
	lim := &limitListener{Listener: ln, done: make(chan struct{})}
	lim.left.Store(1)
	srv := &Server{Eval: echoEval, DieAfter: 1}
	go srv.Serve(lim)
	t.Cleanup(func() {
		ln.Close()
		close(lim.done)
	})

	pool := &shard.Pool{
		Transports: []shard.Transport{&Dialer{Addr: ln.Addr().String()}},
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
	reg := telemetry.NewRegistry()
	addr := startServer(t, &Server{Eval: cachingEval(NewCache(0), &evals), Metrics: reg})
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
	// second one may not be counted yet when the reply arrives here.
	jobs, hits := reg.Counter("shardnet_server_jobs_total"), reg.Counter("shardnet_server_cache_hits_total")
	for deadline := time.Now().Add(time.Second); jobs.Value() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if jobs.Value() != 2 || hits.Value() != 1 {
		t.Fatalf("server counted %d jobs and %d cache hits, want 2 and 1", jobs.Value(), hits.Value())
	}
}

// TestSessionHoldsLastInlineConfig drives the worker half of
// config-by-hash with hand-written frames. A session fills hash-only
// jobs from the last config that arrived inline on it, answers a blob
// that does not match its hash with an error and keeps its config, and
// ends on a hash-only job for any other config: one it received before
// the last, or one only another connection shipped.
func TestSessionHoldsLastInlineConfig(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	recording := func(job *shard.Job) (*shard.Result, error) {
		mu.Lock()
		seen = append(seen, string(job.Cfg))
		mu.Unlock()
		return echoEval(job)
	}
	addr := startServer(t, &Server{Eval: recording})

	cfgA, cfgB := []byte(`{"Delta":1}`), []byte(`{"Delta":2}`)
	hashA, hashB := shard.HashBytes(cfgA), shard.HashBytes(cfgB)
	job := func(id uint64, cfg []byte, h shard.Hash) *shard.Job {
		j := testJobs(1, 2)[0]
		j.ID, j.Cfg, j.CfgHash = id, cfg, h
		return j
	}
	// roundTrip writes one job frame and reads the answer; a nil
	// result means the session ended instead.
	roundTrip := func(nc net.Conn, j *shard.Job) *shard.Result {
		t.Helper()
		if _, err := nc.Write(frame(t, j)); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		payload, err := shard.ReadPayload(nc)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("job %d: no answer and no hang-up: %v", j.ID, err)
			}
			return nil
		}
		res, err := shard.DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	nc := handshake(t, addr)
	for _, step := range []struct {
		job *shard.Job
		err string // "" for a scored result
	}{
		{job(1, cfgA, hashA), ""},
		{job(2, nil, hashA), ""},
		{job(3, cfgA, hashB), "hashes to"},
		{job(4, nil, hashA), ""},
		{job(5, cfgB, hashB), ""},
		{job(6, nil, hashB), ""},
	} {
		res := roundTrip(nc, step.job)
		if res == nil {
			t.Fatalf("job %d ended the session", step.job.ID)
		}
		if res.ID != step.job.ID || !strings.Contains(res.Err, step.err) || (step.err == "") != (len(res.Scores) == 2) {
			t.Fatalf("job %d answered %+v, want error %q", step.job.ID, res, step.err)
		}
	}
	if res := roundTrip(nc, job(7, nil, hashA)); res != nil {
		t.Fatalf("a hash-only job for the config shipped before the last was answered: %+v", res)
	}
	if res := roundTrip(handshake(t, addr), job(8, nil, hashB)); res != nil {
		t.Fatalf("a hash-only job for a config only another connection shipped was answered: %+v", res)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{string(cfgA), string(cfgA), string(cfgA), string(cfgB), string(cfgB)}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("evaluator saw configs %q, want %q", seen, want)
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

// TestTCPConnRoundTripAllocatesNothing pins the client's frame buffers:
// once a connection's handshake is done and its config has crossed, a
// Send of a hash-only job and the Recv of its result into a reused
// Result allocate nothing. The worker is a loop over fixed buffers, so
// every allocation counted is the client's.
func TestTCPConnRoundTripAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	answer := frame(t, &shard.Result{ID: 100, Scores: []float64{1, 2}, Fired: []uint64{3, 4}})
	welcomeFrame := frame(t, &welcome{Magic: Magic, Version: shard.ProtocolVersion, OK: true, HeartbeatMillis: 1000})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReaderSize(nc, readBufSize)
		buf := make([]byte, readBufSize)
		if _, err := shard.ReadPayloadInto(br, buf); err != nil { // the hello
			return
		}
		nc.Write(welcomeFrame)
		for {
			if _, err := shard.ReadPayloadInto(br, buf); err != nil {
				return
			}
			if _, err := nc.Write(answer); err != nil {
				return
			}
		}
	}()
	conn, err := (&Dialer{Addr: ln.Addr().String()}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cfg := []byte(`{"Delta":1}`)
	job := testJobs(1, 2)[0]
	job.Cfg, job.CfgHash = cfg, shard.HashBytes(cfg)
	var res shard.Result
	roundTrip := func() {
		if err := conn.Send(job); err != nil {
			t.Fatal(err)
		}
		if err := conn.Recv(time.Second, &res); err != nil || res.ID != job.ID || len(res.Scores) != 2 || res.Fired[1] != 4 {
			t.Fatalf("round trip = %+v, %v", res, err)
		}
	}
	roundTrip() // the handshake, and the config inline
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("a warm round trip allocates %v times, want none", allocs)
	}
}
