package shard

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"learnability/internal/telemetry"
)

// Transport establishes worker connections for one pool lane. The
// built-in ProcTransport spawns local worker processes speaking the
// frame protocol on stdin/stdout; internal/remy/shardnet provides a TCP
// transport for workers on other machines. Dial is called at pool
// startup and again whenever a lane's connection fails (the
// reconnect-with-requeue path), so a Transport must be safe to dial
// repeatedly.
type Transport interface {
	// Dial establishes one worker connection ready for job traffic.
	Dial() (Conn, error)
	// Name identifies the worker for diagnostics (an argv, an address).
	Name() string
}

// Conn is one live worker connection carrying a pipelined job stream:
// the lane may Send several jobs before the first Recv, and the worker
// answers in its own order (in practice FIFO — workers are serial). A
// Conn is used by a single lane goroutine at a time; implementations
// need not be concurrency-safe beyond surviving Close during a pending
// Recv.
type Conn interface {
	// Send ships one job frame. forceCfg makes a hash-bearing job
	// carry its config inline even if this connection shipped that
	// config before — the NeedCfg refetch path. A failed Send leaves
	// the connection unusable.
	Send(job *Job, forceCfg bool) error
	// Recv awaits the next result frame. timeout, when positive,
	// bounds the wait: for process connections it caps the whole wait;
	// for transports with heartbeats (shardnet) it caps the silence
	// between frames, so long jobs survive as long as the worker keeps
	// proving liveness. An expired or failed Recv leaves the
	// connection unusable — the pool discards it and redials.
	Recv(timeout time.Duration) (*Result, error)
	// Close tears the connection down, releasing its resources and
	// failing any pending Recv.
	Close()
}

// RoundTrip sends one job and awaits its result, transparently
// resolving one NeedCfg refetch — the lockstep convenience the tests
// and one-shot tools use; the pool itself pipelines.
func RoundTrip(c Conn, job *Job, timeout time.Duration) (*Result, error) {
	if err := c.Send(job, false); err != nil {
		return nil, err
	}
	res, err := c.Recv(timeout)
	if err != nil {
		return nil, err
	}
	if res.NeedCfg && res.ID == job.ID {
		if err := c.Send(job, true); err != nil {
			return nil, err
		}
		return c.Recv(timeout)
	}
	return res, nil
}

// ProcTransport spawns a local worker process per connection, wired
// for frame I/O on its stdin/stdout — the `remytrain -shard-cmd`
// transport.
type ProcTransport struct {
	// Argv is the worker command (e.g. {"remyshardd", "-stdio"}).
	Argv []string
}

// Dial spawns one worker process.
func (t *ProcTransport) Dial() (Conn, error) {
	cmd := exec.Command(t.Argv[0], t.Argv[1:]...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &procConn{cmd: cmd, in: in, out: bufio.NewReader(out), sent: cfgSent{}}, nil
}

// Name identifies the transport by its command.
func (t *ProcTransport) Name() string { return t.Argv[0] }

// procConn is one live worker process and its pipes.
type procConn struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	sent cfgSent
}

// Send ships one job frame to the worker process, hash-only once the
// config has crossed this connection.
func (c *procConn) Send(job *Job, forceCfg bool) error {
	return WriteJob(c.in, c.sent.prep(job, forceCfg))
}

// Recv reads the worker's next result, enforcing the timeout by
// killing the process (which errors the pending read).
func (c *procConn) Recv(timeout time.Duration) (*Result, error) {
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() { c.cmd.Process.Kill() })
		defer timer.Stop()
	}
	return ReadResult(c.out)
}

// Close kills and reaps the worker process.
func (c *procConn) Close() {
	c.in.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// Pool fans shard jobs out over a fixed set of worker lanes and merges
// results by batch position, so the caller sees deterministic output
// regardless of which lane finished which job when. Each lane is one
// of: a worker process (Cmd set), an in-process fallback call (Cmd
// empty — the local mode cmd/remytrain uses when no -shard-cmd is
// given), or a remote worker reached through an entry of Transports
// (the TCP lanes `remytrain -remotes` adds). Worker lanes pipeline:
// each keeps up to Window jobs in flight, so a worker starts its next
// job without waiting for the coordinator to read the last result. A
// lane whose worker crashes, writes garbage, or exceeds Timeout is
// reconnected and its whole in-flight window requeued for any other
// lane; after MaxAttempts worker deliveries a job is evaluated
// in-process, so a batch always completes with the same bits.
type Pool struct {
	// Lanes is the number of local lanes: worker processes when Cmd is
	// set, in-process fallback lanes otherwise. With Transports present
	// it may be 0 (remote-only pools); otherwise it defaults to 1.
	Lanes int
	// Cmd is the local worker argv (e.g. {"remyshardd", "-stdio"}).
	// Empty means every local lane evaluates in-process via Fallback.
	Cmd []string
	// Transports adds one extra lane per entry, each dialing its own
	// worker (shardnet TCP dialers). Dial failures at Start are fatal;
	// mid-run failures mark the lane dead after a failed redial.
	Transports []Transport
	// Fallback evaluates a job in-process: the local mode's evaluator
	// and the requeue path of last resort. Required.
	Fallback Eval
	// Timeout bounds one result wait on a worker lane (for
	// heartbeat-capable transports: the silence between frames); 0
	// means no limit. An expired wait tears the connection down and
	// requeues the lane's window.
	Timeout time.Duration
	// MaxAttempts is the number of worker deliveries per job before
	// the pool falls back to in-process evaluation (default 3).
	MaxAttempts int
	// Window is the number of jobs a worker lane keeps in flight
	// (default 2): one evaluating, one queued behind it, so the worker
	// never idles waiting for the next frame.
	Window int
	// Metrics, when non-nil, receives per-lane fabric metrics
	// (dispatched jobs, job latency, in-flight window occupancy,
	// requeues, NeedCfg refetches, reconnects, in-process fallbacks)
	// under names labeled lane="<index>:<transport name>". Nil keeps
	// the dispatch path free of clock reads.
	Metrics *telemetry.Registry

	lanes []*lane // built by Start; nil entries never occur
}

// lane is one worker slot: its transport (nil for in-process fallback
// lanes) and its current connection (nil when local or dead).
type lane struct {
	transport Transport
	conn      Conn
	m         laneMetrics
}

// laneMetrics holds one lane's metric handles; all nil when pool
// metrics are off, so call sites rely on telemetry's nil-safety.
type laneMetrics struct {
	jobs       *telemetry.Counter   // results delivered by this lane
	jobNanos   *telemetry.Histogram // Send-to-result latency
	inflight   *telemetry.Gauge     // current window occupancy
	requeues   *telemetry.Counter   // jobs returned to the queue on a fault
	refetches  *telemetry.Counter   // NeedCfg config resends
	reconnects *telemetry.Counter   // connection replacements
	fallbacks  *telemetry.Counter   // jobs evaluated in-process
}

// mkLaneMetrics resolves the handle set for lane i of the registry.
func mkLaneMetrics(reg *telemetry.Registry, i int, name string) laneMetrics {
	label := fmt.Sprintf("{lane=\"%d:%s\"}", i, name)
	return laneMetrics{
		jobs:       reg.Counter("shard_lane_jobs_total" + label),
		jobNanos:   reg.Histogram("shard_lane_job_ns" + label),
		inflight:   reg.Gauge("shard_lane_inflight" + label),
		requeues:   reg.Counter("shard_lane_requeues_total" + label),
		refetches:  reg.Counter("shard_lane_cfg_refetches_total" + label),
		reconnects: reg.Counter("shard_lane_reconnects_total" + label),
		fallbacks:  reg.Counter("shard_lane_fallbacks_total" + label),
	}
}

// NumLanes reports the pool's total lane count (local + transports) as
// resolved by Start; callers use it to slice batches.
func (p *Pool) NumLanes() int { return len(p.lanes) }

// Depth reports how many jobs per lane a batch should provide to keep
// the pipelines full: Window (as resolved by Start) when any lane has
// a worker connection, 1 for pure in-process pools, where pipelining
// buys nothing and finer slicing only adds merge overhead.
func (p *Pool) Depth() int {
	for _, l := range p.lanes {
		if l.transport != nil {
			return p.Window
		}
	}
	return 1
}

// Start establishes every lane's worker connection (a no-op for
// in-process lanes). A spawn or dial failure stops the pool and is
// returned: a bad worker command or dead remote should fail loudly at
// startup, not degrade silently.
func (p *Pool) Start() error {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Window <= 0 {
		p.Window = 2
	}
	if p.Fallback == nil {
		return fmt.Errorf("shard: pool needs a Fallback evaluator")
	}
	local := p.Lanes
	if local < 1 {
		if len(p.Transports) > 0 {
			local = 0 // remote-only pool
		} else {
			local = 1
		}
	}
	var localT Transport
	if len(p.Cmd) > 0 {
		localT = &ProcTransport{Argv: p.Cmd}
	}
	p.lanes = make([]*lane, 0, local+len(p.Transports))
	for i := 0; i < local; i++ {
		p.lanes = append(p.lanes, &lane{transport: localT})
	}
	for _, t := range p.Transports {
		p.lanes = append(p.lanes, &lane{transport: t})
	}
	if p.Metrics != nil {
		for i, l := range p.lanes {
			name := "local"
			if l.transport != nil {
				name = l.transport.Name()
			}
			l.m = mkLaneMetrics(p.Metrics, i, name)
		}
	}
	for i, l := range p.lanes {
		if l.transport == nil {
			continue
		}
		conn, err := l.transport.Dial()
		if err != nil {
			p.Close()
			return fmt.Errorf("shard: connect lane %d (%s): %w", i, l.transport.Name(), err)
		}
		l.conn = conn
	}
	return nil
}

// Close shuts down every worker connection. The pool can be restarted
// with Start afterwards.
func (p *Pool) Close() {
	for _, l := range p.lanes {
		if l != nil && l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
	}
	p.lanes = nil
}

// Do evaluates a batch of jobs and returns their results in batch
// order. It blocks until every job has a result (or a deterministic
// evaluation error surfaces). Jobs are handed to free lanes as they
// come; crashes and timeouts requeue the affected window, so
// completion order never affects the merged output.
func (p *Pool) Do(jobs []*Job) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	queue := make(chan *Job, len(jobs))
	for i, job := range jobs {
		job.index = i
		job.attempts = 0
		queue <- job
	}

	results := make([]*Result, len(jobs))
	remaining := int64(len(jobs))
	done := make(chan struct{})
	var closeOnce sync.Once
	finish := func() { closeOnce.Do(func() { close(done) }) }
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		finish()
	}
	deliver := func(job *Job, res *Result) {
		if res.Err != "" {
			fail(fmt.Errorf("shard: job %d failed: %s", job.ID, res.Err))
			return
		}
		results[job.index] = res
		if atomic.AddInt64(&remaining, -1) == 0 {
			finish()
		}
	}

	// Every lane races for jobs, even when the batch is smaller than
	// the pool: lanes are heterogeneous now (a prefix cut would
	// always idle the remote lanes, which Start appends last, keeping
	// small batches away from worker caches). Surplus lanes just
	// block until the batch finishes and exit.
	var wg sync.WaitGroup
	wg.Add(len(p.lanes))
	for _, l := range p.lanes {
		go func(l *lane) {
			defer wg.Done()
			p.runLane(l, queue, done, deliver)
		}(l)
	}
	<-done
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// runLane drives one lane until the batch finishes: in-process
// evaluation for local or dead lanes, a pipelined window for connected
// worker lanes (re-entered after every reconnect).
func (p *Pool) runLane(l *lane, queue chan *Job, done <-chan struct{}, deliver func(*Job, *Result)) {
	for {
		if l.conn == nil {
			select {
			case <-done:
				return
			case job := <-queue:
				p.fallbackJob(l, job, deliver)
			}
			continue
		}
		if !p.runWindow(l, queue, done, deliver) {
			return
		}
	}
}

// fallbackJob evaluates one job in-process on behalf of lane l and
// delivers it.
func (p *Pool) fallbackJob(l *lane, job *Job, deliver func(*Job, *Result)) {
	l.m.jobs.Inc()
	l.m.fallbacks.Inc()
	res, err := p.Fallback(job)
	if err != nil {
		deliver(job, &Result{ID: job.ID, Err: err.Error()})
		return
	}
	res.ID = job.ID
	deliver(job, res)
}

// runWindow runs one connection's pipelined job stream: keep up to
// Window jobs in flight, deliver results as they land, and on any
// transport fault requeue the entire in-flight window and redial.
// Evaluation is a pure function of the job, so requeued retries are
// bit-identical wherever they land. It returns false when the batch is
// done (the lane should exit) and true when the lane should re-enter
// with a fresh connection state.
func (p *Pool) runWindow(l *lane, queue chan *Job, done <-chan struct{}, deliver func(*Job, *Result)) bool {
	window := make(map[uint64]*Job, p.Window)
	refetched := make(map[uint64]bool)
	// abort returns every undelivered job to the shared queue (its
	// capacity covers the whole batch, so this never blocks) and
	// replaces the connection.
	abort := func(failed *Job) {
		n := int64(len(window))
		if failed != nil {
			n++
			queue <- failed
		}
		for _, job := range window {
			queue <- job
		}
		l.m.requeues.Add(n)
		l.m.inflight.Set(0)
		p.reconnect(l)
	}
	for {
		// Top up the window: block for the first job, opportunistically
		// take more while in-flight slots remain.
		for len(window) < p.Window {
			var job *Job
			if len(window) == 0 {
				select {
				case <-done:
					return false
				case job = <-queue:
				}
			} else {
				select {
				case job = <-queue:
				default:
				}
				if job == nil {
					break
				}
			}
			if job.attempts >= p.MaxAttempts {
				p.fallbackJob(l, job, deliver)
				continue
			}
			job.attempts++
			if err := l.conn.Send(job, false); err != nil {
				abort(job)
				return true
			}
			if l.m.jobNanos != nil {
				job.sentAt = time.Now()
			}
			window[job.ID] = job
			l.m.inflight.Set(float64(len(window)))
		}
		res, err := l.conn.Recv(p.Timeout)
		if err != nil {
			abort(nil)
			return true
		}
		job, ok := window[res.ID]
		if !ok {
			// A result for a job this window never sent: the worker is
			// answering garbage IDs — treat the connection as broken.
			abort(nil)
			return true
		}
		if res.NeedCfg {
			// Config-store miss: resend with the blob inline (not a
			// delivery attempt — nothing was evaluated). A second miss
			// for the same job means the worker cannot hold a config.
			if refetched[res.ID] {
				abort(nil)
				return true
			}
			refetched[res.ID] = true
			l.m.refetches.Inc()
			if err := l.conn.Send(job, true); err != nil {
				abort(nil)
				return true
			}
			continue
		}
		delete(window, res.ID)
		l.m.jobs.Inc()
		if l.m.jobNanos != nil {
			l.m.jobNanos.Observe(time.Since(job.sentAt).Nanoseconds())
		}
		l.m.inflight.Set(float64(len(window)))
		deliver(job, res)
	}
}

// reconnect replaces a lane's connection after a failure. If the
// redial fails the lane is marked dead and its future jobs run
// in-process.
func (p *Pool) reconnect(l *lane) {
	l.m.reconnects.Inc()
	if l.conn != nil {
		l.conn.Close()
	}
	conn, err := l.transport.Dial()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard: reconnect to %s failed (%v); lane falls back in-process\n",
			l.transport.Name(), err)
		l.conn = nil
		return
	}
	l.conn = conn
}
