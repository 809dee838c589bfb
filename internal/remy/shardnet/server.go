package shardnet

import (
	"bufio"
	"errors"
	"fmt"
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
	// Result.Cached set and are tallied in Stats().CacheHits.
	Eval shard.Eval
	// Heartbeat is the liveness interval while a job evaluates
	// (default DefaultHeartbeat). Clients count any frame as liveness,
	// so this bounds how stale a live connection can look.
	Heartbeat time.Duration
	// Workers, when positive, overrides each job's internal
	// parallelism: a coordinator sizes Job.Workers for its own
	// machine, which means nothing on this one. cmd/remyshardd
	// defaults it to NumCPU. Parallelism never affects results.
	Workers int
	// Version is the protocol version the server speaks (default
	// shard.ProtocolVersion); the handshake and every job are checked
	// against it. Tests override it to exercise mismatch rejection.
	Version int
	// DieAfter, when positive, drops each connection after fully
	// serving that many jobs — the next job is read and abandoned
	// without a reply, simulating a worker killed mid-generation for
	// the requeue tests (remyshardd's REMY_SHARD_DIE_AFTER).
	DieAfter int
	// Log, when set, receives one line per connection event.
	Log func(format string, args ...any)
	// Metrics, when non-nil, records the worker's fabric series:
	// connection count, jobs served, cache hits, NeedCfg misses,
	// heartbeats sent, and a job evaluation-latency histogram —
	// cmd/remyshardd serves them on `-metrics`. Set it before Serve.
	Metrics *telemetry.Registry

	jobs      atomic.Uint64 // jobs answered (cache hits included)
	cacheHits atomic.Uint64 // jobs answered entirely from the cache

	mOnce sync.Once
	m     serverMetrics

	cfgOnce sync.Once
	cfgs    *shard.ConfigStore // server-wide, so configs survive reconnects
}

// serverMetrics holds the server's metric handles; all nil when
// Metrics is unset, relying on telemetry's nil-safety.
type serverMetrics struct {
	conns      *telemetry.Gauge
	jobs       *telemetry.Counter
	cacheHits  *telemetry.Counter
	cfgMisses  *telemetry.Counter
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
			cfgMisses:  s.Metrics.Counter("shardnet_server_cfg_misses_total"),
			heartbeats: s.Metrics.Counter("shardnet_server_heartbeats_total"),
			jobNanos:   s.Metrics.Histogram("shardnet_server_job_ns"),
		}
	})
	return &s.m
}

// configs returns the server's content-addressed config store,
// creating it on first use.
func (s *Server) configs() *shard.ConfigStore {
	s.cfgOnce.Do(func() { s.cfgs = shard.NewConfigStore(0) })
	return s.cfgs
}

// FlushConfigs drops every stored config blob, forcing the NeedCfg
// refetch path on the next hash-only job — the differential tests use
// it to model a daemon that lost its store mid-generation.
func (s *Server) FlushConfigs() { s.configs().Flush() }

// ServerStats counts a server's lifetime traffic.
type ServerStats struct {
	// Jobs is the number of jobs answered, cache hits included.
	Jobs uint64
	// CacheHits is the number of jobs answered from the cache.
	CacheHits uint64
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{Jobs: s.jobs.Load(), CacheHits: s.cacheHits.Load()}
}

func (s *Server) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

func (s *Server) version() int {
	if s.Version != 0 {
		return s.Version
	}
	return shard.ProtocolVersion
}

// heartbeat resolves the effective liveness interval.
func (s *Server) heartbeat() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	return DefaultHeartbeat
}

// Serve accepts connections on l and serves each in its own
// goroutine until the listener is closed (which returns nil). Accept
// errors other than closure — fd exhaustion under connection bursts,
// transient network trouble — are retried with capped backoff rather
// than returned: a worker daemon dying on EMFILE would silently
// degrade every coordinator pointed at it to in-process fallback.
func (s *Server) Serve(l net.Listener) error {
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
		go s.ServeConn(conn)
	}
}

// session serializes frame writes to one connection: the heartbeat
// goroutine and the job loop share the socket.
type session struct {
	nc net.Conn
	mu sync.Mutex
}

// writeHeartbeat sends one liveness frame under the session's write
// lock and deadline.
func (sn *session) writeHeartbeat() error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	return shard.WriteFrame(sn.nc, &reply{Kind: kindHeartbeat})
}

// writeResult sends one binary result frame under the same lock and
// deadline as heartbeat writes.
func (sn *session) writeResult(res *shard.Result) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	return shard.WriteResult(sn.nc, res)
}

// ServeConn handshakes and serves one coordinator connection to
// completion, closing it on return.
func (s *Server) ServeConn(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)

	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	var h hello
	if err := shard.ReadFrame(br, &h); err != nil {
		s.logf("shardnet: %s: handshake read: %v", nc.RemoteAddr(), err)
		return
	}
	w := welcome{Magic: Magic, Version: s.version(), OK: true, HeartbeatMillis: s.heartbeat().Milliseconds()}
	switch {
	case h.Magic != Magic:
		w.OK, w.Reason = false, fmt.Sprintf("bad magic %q", h.Magic)
	case h.Version != s.version():
		w.OK, w.Reason = false, fmt.Sprintf("protocol version %d, worker speaks %d", h.Version, s.version())
	}
	if err := shard.WriteFrame(nc, &w); err != nil || !w.OK {
		s.logf("shardnet: %s: handshake rejected: %s", nc.RemoteAddr(), w.Reason)
		return
	}
	nc.SetDeadline(time.Time{})
	s.logf("shardnet: %s: connected (protocol v%d)", nc.RemoteAddr(), s.version())
	m := s.metrics()
	m.connTotal.Inc()
	m.conns.Add(1)
	defer m.conns.Add(-1)

	sn := &session{nc: nc}
	served := 0
	for {
		payload, err := shard.ReadPayload(br)
		if err != nil {
			s.logf("shardnet: %s: disconnected: %v", nc.RemoteAddr(), err)
			return
		}
		job, _, err := shard.DecodeJob(payload)
		if err != nil {
			s.logf("shardnet: %s: disconnected: %v", nc.RemoteAddr(), err)
			return
		}
		if s.DieAfter > 0 && served >= s.DieAfter {
			s.logf("shardnet: %s: DieAfter %d reached; dropping connection", nc.RemoteAddr(), s.DieAfter)
			return
		}
		res := s.evalJob(sn, job)
		if err := sn.writeResult(res); err != nil {
			s.logf("shardnet: %s: write result: %v", nc.RemoteAddr(), err)
			return
		}
		if res.NeedCfg {
			// A config-store miss answers nothing: the coordinator
			// resends the job inline, and only that delivery counts.
			m.cfgMisses.Inc()
			continue
		}
		served++
		s.jobs.Add(1)
		m.jobs.Inc()
	}
}

// evalJob answers one job: version check, config-by-hash resolution
// against the server-wide store (a miss answers NeedCfg and evaluates
// nothing), then the evaluator under a heartbeat ticker. Failures
// become error Results, never torn connections — only transport
// trouble ends a session.
func (s *Server) evalJob(sn *session, job *shard.Job) *shard.Result {
	if job.Version != s.version() {
		return &shard.Result{ID: job.ID, Err: fmt.Sprintf("protocol version %d, worker speaks %d", job.Version, s.version())}
	}
	if res := shard.ResolveConfig(job, s.configs()); res != nil {
		return res
	}
	if s.Workers > 0 {
		job.Workers = s.Workers
	}
	m := s.metrics()
	var began time.Time
	if m.jobNanos != nil {
		began = time.Now()
	}
	stop := s.startHeartbeat(sn)
	res, err := s.Eval(job)
	stop()
	if m.jobNanos != nil {
		m.jobNanos.Observe(time.Since(began).Nanoseconds())
	}
	if err != nil {
		return &shard.Result{ID: job.ID, Err: err.Error()}
	}
	res.ID = job.ID
	if res.Cached {
		s.cacheHits.Add(1)
		m.cacheHits.Inc()
	}
	return res
}

// startHeartbeat emits heartbeat frames on the session until the
// returned stop function is called (which joins the ticker goroutine,
// so no heartbeat write races the result write's buffer).
func (s *Server) startHeartbeat(sn *session) (stop func()) {
	m := s.metrics()
	interval := s.heartbeat()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if sn.writeHeartbeat() != nil {
					return // the job loop will see the same broken pipe
				}
				m.heartbeats.Inc()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
