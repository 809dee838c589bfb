package shardnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"learnability/internal/remy/shard"
	"learnability/internal/telemetry"
)

// handshakeTimeout bounds the handshake exchange on a fresh
// connection, so a port-scanning client cannot pin an accept slot.
const handshakeTimeout = 10 * time.Second

// writeTimeout bounds any single frame write, so a vanished client
// (network partition, no RST) cannot hang a session goroutine forever.
const writeTimeout = time.Minute

// readBufSize sizes a session's frame reader so that a whole job —
// one lane's share of a batch, tens of kilobytes at most in practice —
// usually arrives in one read, the hello and the first job together.
const readBufSize = 64 << 10

// readers recycles sessions' frame readers: a connection per training
// run would otherwise allocate readBufSize bytes each.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readBufSize) }}

// DefaultHeartbeat is the worker's liveness interval while a job
// evaluates; clients should set their per-job timeout comfortably
// above it (remytrain's -shard-timeout bounds silence, not job
// length, on shardnet lanes).
const DefaultHeartbeat = 2 * time.Second

// Server is the worker half of distributed training: it accepts
// coordinator connections, performs the version handshake, and serves
// shard jobs — many per connection — until the peer hangs up.
// cmd/remyshardd hosts one Server per daemon; the differential tests
// host them in-process on loopback listeners.
type Server struct {
	// Eval evaluates one job (remy.CachedShardEval over EvalShardJob
	// in the daemon — the slot-level result cache lives inside the
	// evaluator, not the server). Required. Evaluation errors travel
	// back as Result.Err; fully cache-served jobs arrive with
	// Result.Cached set and are counted in Metrics as
	// shardnet_server_cache_hits_total. The job it is handed, and every
	// byte the job references, is the session's and is reused for the
	// session's next job, so Eval must not keep either past its return.
	Eval shard.Eval
	// Heartbeat is the liveness interval while a job evaluates
	// (default DefaultHeartbeat). Clients count any frame as liveness,
	// so this bounds how stale a live connection can look.
	Heartbeat time.Duration
	// Workers, when positive, overrides each job's internal
	// parallelism: a coordinator sizes Job.Workers for its own
	// machine (ShardWorkers times the number of times its -remotes
	// names this worker), which means nothing on this one.
	// cmd/remyshardd defaults it to NumCPU, so naming a daemon twice
	// does not double its concurrency. Parallelism never affects
	// results.
	Workers int
	// DieAfter, when positive, drops each connection after fully
	// serving that many jobs — the next job is read and abandoned
	// without a reply, simulating a worker killed mid-generation for
	// the requeue tests (remyshardd's REMY_SHARD_DIE_AFTER).
	DieAfter int
	// Log, when set, receives one line per connection event.
	Log func(format string, args ...any)
	// Metrics, when non-nil, records the worker's fabric series:
	// connection count, jobs served, cache hits, heartbeats sent, and a
	// job evaluation-latency histogram — cmd/remyshardd serves them on
	// `-metrics` and logs the job count under `-v`. Set it before Serve.
	Metrics *telemetry.Registry

	mOnce sync.Once
	m     serverMetrics
}

// serverMetrics holds the server's metric handles; all nil when
// Metrics is unset, relying on telemetry's nil-safety.
type serverMetrics struct {
	conns      *telemetry.Gauge
	jobs       *telemetry.Counter
	cacheHits  *telemetry.Counter
	heartbeats *telemetry.Counter
	jobNanos   *telemetry.Histogram
	connTotal  *telemetry.Counter
}

// metrics lazily resolves the handle set (ServeConn runs on many
// goroutines; the registry itself is concurrency-safe but the cached
// handle struct is written once).
func (s *Server) metrics() *serverMetrics {
	s.mOnce.Do(func() {
		if s.Metrics == nil {
			return
		}
		s.m = serverMetrics{
			conns:      s.Metrics.Gauge("shardnet_server_connections"),
			connTotal:  s.Metrics.Counter("shardnet_server_connections_total"),
			jobs:       s.Metrics.Counter("shardnet_server_jobs_total"),
			cacheHits:  s.Metrics.Counter("shardnet_server_cache_hits_total"),
			heartbeats: s.Metrics.Counter("shardnet_server_heartbeats_total"),
			jobNanos:   s.Metrics.Histogram("shardnet_server_job_ns"),
		}
	})
	return &s.m
}

func (s *Server) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

// heartbeat resolves the effective liveness interval.
func (s *Server) heartbeat() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	return DefaultHeartbeat
}

// Serve accepts connections on l and serves each in its own
// goroutine until the listener is closed, and then closes the
// connections it accepted and returns nil: a stopped worker ends its
// sessions, so a client's parked connection to it reads end-of-stream
// and is not taken for a worker that later listens on the same address.
// Accept errors other than closure — fd exhaustion under connection
// bursts, transient network trouble — are retried with capped backoff
// rather than returned: a worker daemon dying on EMFILE would silently
// degrade every coordinator pointed at it to in-process fallback.
func (s *Server) Serve(l net.Listener) error {
	var mu sync.Mutex
	open := make(map[net.Conn]struct{})
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for nc := range open {
			nc.Close()
		}
	}()
	backoff := 5 * time.Millisecond
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			s.logf("shardnet: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		mu.Lock()
		open[conn] = struct{}{}
		mu.Unlock()
		go func() {
			s.ServeConn(conn)
			mu.Lock()
			delete(open, conn)
			mu.Unlock()
		}()
	}
}

// session is one coordinator connection's state. It serializes frame
// writes: the heartbeat goroutine and the job loop share the socket.
// busy is set while a job evaluates; the heartbeat goroutine writes
// only then. cfg is the last config that arrived inline on the
// connection, checked against its hash cfgHash; the job loop alone
// touches them. Frames are read into rbuf, each job decoded into job
// (whose storage holds the trees its edits rebuild), and results
// encoded into wbuf, all reused for the session's life: a decoded job
// aliases rbuf and its own storage, so nothing may keep a job or its
// bytes after its result is written, and cfg is a copy.
type session struct {
	nc   net.Conn
	mu   sync.Mutex
	busy atomic.Bool

	cfg     []byte
	cfgHash shard.Hash

	rbuf []byte
	job  shard.Job
	wbuf []byte // guarded by mu
}

// writeHeartbeat sends one liveness frame under the session's write
// lock and deadline if a job is evaluating, and reports whether it
// did. busy is read under the lock and cleared before the result is
// written, so no heartbeat follows its job's result.
func (sn *session) writeHeartbeat() (sent bool, err error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if !sn.busy.Load() {
		return false, nil
	}
	sn.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	return true, shard.WriteFrame(sn.nc, &reply{Kind: kindHeartbeat})
}

// writeResult sends one binary result frame under the same lock and
// deadline as heartbeat writes.
func (sn *session) writeResult(res *shard.Result) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	var err error
	if sn.wbuf, err = shard.AppendResultFrame(sn.wbuf[:0], res); err != nil {
		return err
	}
	sn.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err = sn.nc.Write(sn.wbuf)
	return err
}

// ServeConn handshakes and serves one coordinator connection to
// completion, closing it on return. A client may write its first job
// right behind the hello: the session reads the hello, answers it, and
// then takes the job from what it already read.
func (s *Server) ServeConn(nc net.Conn) {
	defer nc.Close()
	br := readers.Get().(*bufio.Reader)
	br.Reset(nc)
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()

	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	var h hello
	if err := shard.ReadFrame(br, &h); err != nil {
		s.logf("shardnet: %s: handshake read: %v", nc.RemoteAddr(), err)
		return
	}
	w := welcome{Magic: Magic, Version: shard.ProtocolVersion, OK: true, HeartbeatMillis: s.heartbeat().Milliseconds()}
	switch {
	case h.Magic != Magic:
		w.OK, w.Reason = false, fmt.Sprintf("bad magic %q", h.Magic)
	case h.Version != shard.ProtocolVersion:
		w.OK, w.Reason = false, fmt.Sprintf("protocol version %d, worker speaks %d", h.Version, shard.ProtocolVersion)
	}
	if err := shard.WriteFrame(nc, &w); err != nil || !w.OK {
		s.logf("shardnet: %s: handshake rejected: %s", nc.RemoteAddr(), w.Reason)
		if err == nil {
			drainRefused(nc, br)
		}
		return
	}
	nc.SetDeadline(time.Time{})
	s.logf("shardnet: %s: connected (protocol v%d)", nc.RemoteAddr(), shard.ProtocolVersion)
	m := s.metrics()
	m.connTotal.Inc()
	m.conns.Add(1)
	defer m.conns.Add(-1)

	sn := &session{nc: nc}
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		s.heartbeats(sn, stop)
	}()
	defer hb.Wait()
	defer close(stop)
	served := 0
	for {
		payload, err := shard.ReadPayloadInto(br, sn.rbuf)
		if err != nil {
			s.logf("shardnet: %s: disconnected: %v", nc.RemoteAddr(), err)
			return
		}
		sn.rbuf = payload
		job := &sn.job
		if err := shard.DecodeJobInto(payload, job); err != nil {
			s.logf("shardnet: %s: disconnected: %v", nc.RemoteAddr(), err)
			return
		}
		if s.DieAfter > 0 && served >= s.DieAfter {
			s.logf("shardnet: %s: DieAfter %d reached; dropping connection", nc.RemoteAddr(), s.DieAfter)
			return
		}
		res, err := s.evalJob(sn, job)
		if err != nil {
			s.logf("shardnet: %s: disconnected: %v", nc.RemoteAddr(), err)
			return
		}
		if err := sn.writeResult(res); err != nil {
			s.logf("shardnet: %s: write result: %v", nc.RemoteAddr(), err)
			return
		}
		served++
		m.jobs.Inc()
	}
}

// drainRefused ends a refused connection without a reset. The client
// may have written its first job behind the hello; closing with those
// bytes unread would make the kernel answer with a TCP reset, which can
// discard the refusal before the client reads it. So the session shuts
// its write side, which delivers the refusal and then end-of-stream,
// and discards what the client sent until it hangs up or
// handshakeTimeout passes.
func drainRefused(nc net.Conn, br *bufio.Reader) {
	if cw, ok := nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	io.Copy(io.Discard, br)
}

// evalJob answers one job: version check, the session's config for a
// hash-only job, then the evaluator with the session marked busy, so
// the session's ticker heartbeats through it. Failures become error
// Results; only a broken protocol — a hash-only job for a config this
// connection never shipped, or not last — is an error, and ends the
// session like transport trouble does.
func (s *Server) evalJob(sn *session, job *shard.Job) (*shard.Result, error) {
	if job.Version != shard.ProtocolVersion {
		return &shard.Result{ID: job.ID, Err: fmt.Sprintf("protocol version %d, worker speaks %d", job.Version, shard.ProtocolVersion)}, nil
	}
	switch {
	case job.CfgHash.IsZero():
	case len(job.Cfg) > 0:
		// A blob that does not hash to its address is wire corruption:
		// answer it, and keep the session's config.
		if got := shard.HashBytes(job.Cfg); got != job.CfgHash {
			return &shard.Result{ID: job.ID, Err: fmt.Sprintf("shard: config blob hashes to %s, job says %s", got, job.CfgHash)}, nil
		}
		sn.cfg, sn.cfgHash = bytes.Clone(job.Cfg), job.CfgHash
	case job.CfgHash == sn.cfgHash:
		job.Cfg = sn.cfg
	default:
		return nil, fmt.Errorf("job %d names config %s, which this connection did not ship last", job.ID, job.CfgHash)
	}
	if s.Workers > 0 {
		job.Workers = s.Workers
	}
	m := s.metrics()
	var began time.Time
	if m.jobNanos != nil {
		began = time.Now()
	}
	sn.busy.Store(true)
	res, err := s.Eval(job)
	sn.busy.Store(false)
	if m.jobNanos != nil {
		m.jobNanos.Observe(time.Since(began).Nanoseconds())
	}
	if err != nil {
		return &shard.Result{ID: job.ID, Err: err.Error()}, nil
	}
	res.ID = job.ID
	if res.Cached {
		m.cacheHits.Inc()
	}
	return res, nil
}

// heartbeats is a session's one liveness ticker: every interval it
// writes a heartbeat if a job is evaluating, so the silence a client
// sees during a job is at most one interval. It returns when stop
// closes or a write fails (the job loop will see the same broken
// pipe).
func (s *Server) heartbeats(sn *session, stop <-chan struct{}) {
	m := s.metrics()
	t := time.NewTicker(s.heartbeat())
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			sent, err := sn.writeHeartbeat()
			if err != nil {
				return
			}
			if sent {
				m.heartbeats.Inc()
			}
		}
	}
}
