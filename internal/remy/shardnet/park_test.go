package shardnet

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"learnability/internal/remy/shard"
	"learnability/internal/telemetry"
)

// parkedAt returns the connection parked for addr, if any, without
// taking it.
func parkedAt(addr string) *tcpConn {
	parked.Lock()
	defer parked.Unlock()
	return parked.conns[addr]
}

// dialTCP dials addr and returns the connection as the client's type.
func dialTCP(t *testing.T, d *Dialer) *tcpConn {
	t.Helper()
	c, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return c.(*tcpConn)
}

// recordingListener keeps every connection it accepts, so a test can
// hang up on a client from the worker's side.
type recordingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *recordingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, nc)
		l.mu.Unlock()
	}
	return nc, err
}

// hangUp closes the worker's side of every connection accepted so far.
func (l *recordingListener) hangUp() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, nc := range l.conns {
		nc.Close()
	}
}

// startCounted serves srv with a fresh metrics registry on a recording
// loopback listener and returns the address, the listener and the
// server's connection counter.
func startCounted(t *testing.T, srv *Server) (string, *recordingListener, *telemetry.Counter) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := &recordingListener{Listener: ln}
	srv.Metrics = telemetry.NewRegistry()
	conns := srv.Metrics.Counter("shardnet_server_connections_total")
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(rl)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	return ln.Addr().String(), rl, conns
}

// waitSessionsEnded waits until srv has no session left, and then a
// little longer, for the socket to close after the session's count
// drops.
func waitSessionsEnded(t *testing.T, srv *Server) {
	t.Helper()
	live := srv.Metrics.Gauge("shardnet_server_connections")
	for deadline := time.Now().Add(5 * time.Second); live.Value() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("the worker's session never ended")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// startScriptedWorker serves a worker that handshakes with a 1 s
// heartbeat interval and answers every job frame with a result for job
// answer(id); it returns the address.
func startScriptedWorker(t *testing.T, answer func(id uint64) uint64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := &recordingListener{Listener: ln}
	t.Cleanup(func() {
		ln.Close()
		rl.hangUp()
	})
	welcomeFrame := frame(t, &welcome{Magic: Magic, Version: shard.ProtocolVersion, OK: true, HeartbeatMillis: 1000})
	serve := func(nc net.Conn) {
		br := bufio.NewReaderSize(nc, readBufSize)
		if _, err := shard.ReadPayload(br); err != nil { // the hello
			return
		}
		nc.Write(welcomeFrame)
		for {
			payload, err := shard.ReadPayload(br)
			if err != nil {
				return
			}
			job, _, err := shard.DecodeJob(payload)
			if err != nil {
				return
			}
			b, err := shard.AppendResultFrame(nil, &shard.Result{ID: answer(job.ID), Scores: []float64{1}})
			if err != nil {
				return
			}
			if _, err := nc.Write(b); err != nil {
				return
			}
		}
	}
	go func() {
		for {
			nc, err := rl.Accept()
			if err != nil {
				return
			}
			go serve(nc)
		}
	}()
	return ln.Addr().String()
}

// TestClosedConnectionParksOnlyWhenIdle pins when Close keeps a
// connection for the next Dial: after its handshake, with every job it
// was sent answered by that job's own result and no call on it failed.
// Each other case is closed: a failed Send, a failed Recv, a refused
// handshake, a pending result and a result for another job's ID.
func TestClosedConnectionParksOnlyWhenIdle(t *testing.T) {
	job := func() *shard.Job { return testJobs(1, 1)[0] }
	requireClosed := func(t *testing.T, c *tcpConn) {
		t.Helper()
		c.Close()
		if parkedAt(c.addr) == c {
			t.Fatal("Close parked the connection")
		}
		if _, err := c.nc.Write([]byte{0}); err == nil {
			t.Fatal("Close left the socket open")
		}
	}

	t.Run("idle", func(t *testing.T) {
		addr, _, conns := startCounted(t, &Server{Eval: echoEval})
		c := dialTCP(t, &Dialer{Addr: addr})
		if parkedAt(addr) != nil || c.idle.Load() {
			t.Fatal("a connection is idle before its handshake")
		}
		for range 2 {
			if _, err := shard.RoundTrip(c, job(), time.Second); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		if parkedAt(addr) != c {
			t.Fatal("Close did not park an idle connection")
		}
		again := dialTCP(t, &Dialer{Addr: addr})
		defer again.Close()
		if again != c || parkedAt(addr) != nil {
			t.Fatal("Dial did not take the parked connection")
		}
		if _, err := shard.RoundTrip(again, job(), time.Second); err != nil {
			t.Fatal(err)
		}
		if n := conns.Value(); n != 1 {
			t.Fatalf("the worker saw %d connections, want 1", n)
		}
	})
	t.Run("unused", func(t *testing.T) {
		addr, _, _ := startCounted(t, &Server{Eval: echoEval})
		requireClosed(t, dialTCP(t, &Dialer{Addr: addr}))
	})
	t.Run("failed send", func(t *testing.T) {
		addr, _, _ := startCounted(t, &Server{Eval: echoEval})
		c := dialTCP(t, &Dialer{Addr: addr})
		if _, err := shard.RoundTrip(c, job(), time.Second); err != nil {
			t.Fatal(err)
		}
		c.nc.(*net.TCPConn).CloseWrite()
		if err := c.Send(job()); err == nil {
			t.Fatal("Send on a shut socket succeeded")
		}
		requireClosed(t, c)
	})
	t.Run("failed recv", func(t *testing.T) {
		addr, _, _ := startCounted(t, &Server{Eval: echoEval, DieAfter: 1})
		c := dialTCP(t, &Dialer{Addr: addr})
		if _, err := shard.RoundTrip(c, job(), time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := shard.RoundTrip(c, job(), time.Second); err == nil {
			t.Fatal("a DieAfter worker answered past its limit")
		}
		requireClosed(t, c)
	})
	t.Run("refused", func(t *testing.T) {
		addr := startPeer(t, frame(t, &welcome{Magic: Magic, Version: shard.ProtocolVersion - 1, Reason: "old"}))
		c := dialTCP(t, &Dialer{Addr: addr})
		if _, err := shard.RoundTrip(c, job(), time.Second); err == nil {
			t.Fatal("a refusing worker answered")
		}
		requireClosed(t, c)
	})
	t.Run("pending", func(t *testing.T) {
		addr, _, _ := startCounted(t, &Server{Eval: echoEval})
		c := dialTCP(t, &Dialer{Addr: addr})
		if _, err := shard.RoundTrip(c, job(), time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(job()); err != nil {
			t.Fatal(err)
		}
		requireClosed(t, c)
	})
	t.Run("another job's result", func(t *testing.T) {
		addr := startScriptedWorker(t, func(id uint64) uint64 { return id + 1 })
		c := dialTCP(t, &Dialer{Addr: addr})
		if _, err := shard.RoundTrip(c, job(), time.Second); err == nil {
			t.Fatal("RoundTrip took another job's result")
		}
		requireClosed(t, c)
	})
	t.Run("own result", func(t *testing.T) {
		// The scripted worker parks when it answers in kind, so the case
		// above is closed for the ID alone.
		addr := startScriptedWorker(t, func(id uint64) uint64 { return id })
		c := dialTCP(t, &Dialer{Addr: addr})
		if _, err := shard.RoundTrip(c, job(), time.Second); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if parkedAt(addr) != c {
			t.Fatal("Close did not park an idle connection")
		}
		dialTCP(t, &Dialer{Addr: addr}).Close()
	})
}

// TestHungUpParkedConnectionIsNotReused parks a pool's connection, has
// its worker hang up on it while it is parked, and starts a second
// pool: its Dial must see the hang-up and connect afresh, so its job
// is answered on the first try with no reconnect. The worker hangs up
// by DieAfter (a job written on the parked socket behind the client's
// back takes it past its limit) or by closing the socket.
func TestHungUpParkedConnectionIsNotReused(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dieAfter int
		hangUp   func(c *tcpConn, rl *recordingListener)
	}{
		{"DieAfter", 1, func(c *tcpConn, _ *recordingListener) {
			b, err := shard.AppendJobFrame(nil, testJobs(1, 1)[0], true)
			if err != nil {
				panic(err)
			}
			c.nc.Write(b)
		}},
		{"server close", 0, func(_ *tcpConn, rl *recordingListener) { rl.hangUp() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := &Server{Eval: echoEval, DieAfter: tc.dieAfter}
			addr, rl, conns := startCounted(t, srv)
			do := func() *telemetry.Registry {
				t.Helper()
				reg := telemetry.NewRegistry()
				pool := &shard.Pool{Transports: []shard.Transport{&Dialer{Addr: addr}}, Fallback: echoEval, Metrics: reg}
				if err := pool.Start(); err != nil {
					t.Fatal(err)
				}
				defer pool.Close()
				jobs := testJobs(1, 2)
				res, err := pool.Do(jobs)
				if err != nil || res[0].ID != jobs[0].ID {
					t.Fatalf("Do = %v, %v", res, err)
				}
				return reg
			}
			do()
			c := parkedAt(addr)
			if c == nil {
				t.Fatal("the pool's connection was not parked")
			}
			tc.hangUp(c, rl)
			waitSessionsEnded(t, srv)
			reg := do()
			lane := `{lane="0:` + addr + `"}`
			for _, name := range []string{"shard_lane_reconnects_total", "shard_lane_requeues_total", "shard_lane_fallbacks_total"} {
				if n := reg.Counter(name + lane).Value(); n != 0 {
					t.Fatalf("%s = %d, want 0", name, n)
				}
			}
			if n := conns.Value(); n != 2 {
				t.Fatalf("the worker saw %d connections, want 2", n)
			}
		})
	}
}

// TestDeadRemoteFailsStartDespiteParkedConnection: a worker that is
// gone (its listener closed, which ends its sessions) fails Pool.Start,
// although a connection to it was parked.
func TestDeadRemoteFailsStartDespiteParkedConnection(t *testing.T) {
	srv := &Server{Eval: echoEval}
	addr, rl, _ := startCounted(t, srv)
	c := dialTCP(t, &Dialer{Addr: addr})
	if _, err := shard.RoundTrip(c, testJobs(1, 1)[0], time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if parkedAt(addr) != c {
		t.Fatal("the connection was not parked")
	}
	rl.Close()
	waitSessionsEnded(t, srv)
	pool := &shard.Pool{Transports: []shard.Transport{&Dialer{Addr: addr}}, Fallback: echoEval}
	if err := pool.Start(); err == nil {
		pool.Close()
		t.Fatal("pool.Start accepted a dead worker with a parked connection")
	}
}

// TestReusedConnectionReportsToItsNewDialer: a parked connection taken
// by a Dialer with another registry records the heartbeat gaps of its
// next job there, and none in the registry of the Dialer that made it.
func TestReusedConnectionReportsToItsNewDialer(t *testing.T) {
	slowEval := func(job *shard.Job) (*shard.Result, error) {
		time.Sleep(200 * time.Millisecond)
		return echoEval(job)
	}
	addr := startServer(t, &Server{Eval: slowEval, Heartbeat: 50 * time.Millisecond})
	gaps := func(reg *telemetry.Registry) *telemetry.Histogram {
		return reg.Histogram(`shardnet_heartbeat_gap_ns{worker="` + addr + `"}`)
	}
	first, second := telemetry.NewRegistry(), telemetry.NewRegistry()
	c := dialTCP(t, &Dialer{Addr: addr, Metrics: first})
	if _, err := shard.RoundTrip(c, testJobs(1, 1)[0], time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	before := gaps(first).Count()
	if before == 0 {
		t.Fatal("no heartbeat gap recorded during a job of several intervals")
	}
	again := dialTCP(t, &Dialer{Addr: addr, Metrics: second})
	defer again.Close()
	if again != c {
		t.Fatal("Dial did not take the parked connection")
	}
	if _, err := shard.RoundTrip(again, testJobs(1, 1)[0], time.Second); err != nil {
		t.Fatal(err)
	}
	if n := gaps(first).Count(); n != before {
		t.Fatalf("the first Dialer's registry got %d more gaps after the connection moved on", n-before)
	}
	if gaps(second).Count() == 0 {
		t.Fatal("the second Dialer's registry got no heartbeat gaps")
	}
}

// TestExpiredParkedConnectionIsClosed: a connection parked for longer
// than its worker's heartbeat interval is closed by its timer, with no
// later Dial or park to look at it, and the next Dial connects afresh.
// The connection is parked twice, so the timer that fires is the
// first park's, rearmed.
func TestExpiredParkedConnectionIsClosed(t *testing.T) {
	const hb = 200 * time.Millisecond
	addr, _, conns := startCounted(t, &Server{Eval: echoEval, Heartbeat: hb})
	c := dialTCP(t, &Dialer{Addr: addr})
	for i := range 2 {
		if _, err := shard.RoundTrip(c, testJobs(1, 1)[0], time.Second); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if parkedAt(addr) != c {
			t.Fatal("the connection was not parked")
		}
		if i == 0 && dialTCP(t, &Dialer{Addr: addr}) != c {
			t.Fatal("Dial did not take the parked connection")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); parkedAt(addr) == c; {
		if time.Now().After(deadline) {
			t.Fatal("the expired connection is still parked")
		}
		time.Sleep(hb)
	}
	if _, err := c.nc.Write([]byte{0}); err == nil {
		t.Fatal("the expired connection's socket is open")
	}
	fresh := dialTCP(t, &Dialer{Addr: addr})
	defer fresh.Close()
	if fresh == c {
		t.Fatal("Dial handed out an expired connection")
	}
	if _, err := shard.RoundTrip(fresh, testJobs(1, 1)[0], time.Second); err != nil {
		t.Fatal(err)
	}
	if n := conns.Value(); n != 2 {
		t.Fatalf("the worker saw %d connections, want 2", n)
	}
}

// TestParkedConnectionDoesNotReachAStoppedWorker parks a connection,
// stops its worker by closing the listener alone, and starts another
// worker on the same address: the next Dial must reach the new worker,
// not the stopped one's session.
func TestParkedConnectionDoesNotReachAStoppedWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	served := make(chan struct{})
	go func() {
		defer close(served)
		(&Server{Eval: echoEval}).Serve(ln)
	}()
	c := dialTCP(t, &Dialer{Addr: addr})
	if _, err := shard.RoundTrip(c, testJobs(1, 1)[0], time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if parkedAt(addr) != c {
		t.Fatal("the connection was not parked")
	}
	ln.Close()
	<-served

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("the stopped worker's address is not free again: %v", err)
	}
	t.Cleanup(func() { ln2.Close() })
	next := &Server{Eval: func(job *shard.Job) (*shard.Result, error) {
		return &shard.Result{Scores: []float64{-1}}, nil
	}, Metrics: telemetry.NewRegistry()}
	go next.Serve(ln2)
	again := dialTCP(t, &Dialer{Addr: addr})
	defer again.Close()
	if again == c {
		t.Fatal("Dial handed out the stopped worker's connection")
	}
	res, err := shard.RoundTrip(again, testJobs(1, 1)[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := next.Metrics.Counter("shardnet_server_connections_total").Value(); n != 1 || res.Scores[0] != -1 {
		t.Fatalf("the new worker saw %d connections and the job scored %v: the stopped worker answered", n, res.Scores)
	}
}
