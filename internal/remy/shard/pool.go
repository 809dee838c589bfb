package shard

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"learnability/internal/telemetry"
)

// Transport establishes worker connections for one pool lane:
// internal/remy/shardnet's Dialer reaches a remyshardd daemon over TCP,
// and tests script their own. Dial is called at pool startup and again
// whenever a lane's connection fails (the reconnect-with-requeue
// path), so a Transport must be safe to dial repeatedly.
type Transport interface {
	// Dial establishes one worker connection ready for job traffic.
	Dial() (Conn, error)
	// Name identifies the worker for diagnostics (its address).
	Name() string
}

// Conn is one live worker connection. A pool lane keeps one job in
// flight on it: Send, then Recv that job's result (see RoundTrip). A
// Conn is used by a single lane goroutine at a time; implementations
// need not be concurrency-safe beyond surviving Close during a pending
// Recv.
type Conn interface {
	// Send ships one job frame. A hash-bearing job's config rides
	// inline unless it is the config this connection shipped last (see
	// shardnet's tcpConn.Send). A failed Send leaves the connection
	// unusable.
	Send(job *Job) error
	// Recv awaits the next result frame. timeout, when positive,
	// bounds the wait; transports with heartbeats (shardnet) apply it
	// to the silence between frames, so long jobs survive as long as
	// the worker keeps proving liveness. An expired or failed Recv
	// leaves the connection unusable — the pool discards it and
	// redials.
	Recv(timeout time.Duration) (*Result, error)
	// Close tears the connection down, releasing its resources and
	// failing any pending Recv.
	Close()
}

// RoundTrip sends one job and awaits its result — one pool lane step,
// also used by tests and one-shot tools. A result for another job
// means the connection is broken and is an error.
func RoundTrip(c Conn, job *Job, timeout time.Duration) (*Result, error) {
	if err := c.Send(job); err != nil {
		return nil, err
	}
	res, err := c.Recv(timeout)
	if err != nil {
		return nil, err
	}
	if res.ID != job.ID {
		return nil, fmt.Errorf("shard: worker answered job %d with a result for job %d", job.ID, res.ID)
	}
	return res, nil
}

// Pool fans shard jobs out over a fixed set of worker lanes and merges
// results by batch position, so the caller sees deterministic output
// regardless of which lane finished which job when. Each lane is one
// worker reached through an entry of Transports (the TCP lanes
// `remytrain -remotes` adds) and keeps one job in flight; the trainer
// cuts a batch into one job per lane, and a lane that finishes early
// takes whatever is left in the shared queue. A lane whose worker
// crashes, writes garbage, or exceeds Timeout is reconnected and its
// in-flight job requeued for any lane; a lane whose redial fails is
// dead and evaluates in-process from then on, and after MaxAttempts
// worker deliveries a job is evaluated in-process, so a batch always
// completes with the same bits.
type Pool struct {
	// Transports holds one lane per entry, each dialing its own worker
	// (shardnet TCP dialers). At least one is required. Dial failures
	// at Start are fatal; mid-run failures mark the lane dead after a
	// failed redial.
	Transports []Transport
	// Fallback evaluates a job in-process: the requeue path of last
	// resort and the evaluator of dead lanes. Required.
	Fallback Eval
	// Timeout bounds one result wait on a lane (for heartbeat-capable
	// transports: the silence between frames); 0
	// means no limit. An expired wait tears the connection down and
	// requeues the lane's job.
	Timeout time.Duration
	// MaxAttempts is the number of worker deliveries per job before
	// the pool falls back to in-process evaluation (default 3).
	MaxAttempts int
	// Metrics, when non-nil, receives per-lane fabric metrics under
	// names labeled lane="<index>:<transport name>":
	// shard_lane_jobs_total, shard_lane_job_ns (job latency),
	// shard_lane_requeues_total, shard_lane_reconnects_total and
	// shard_lane_fallbacks_total (jobs evaluated in-process). Nil keeps
	// the dispatch path free of clock reads.
	Metrics *telemetry.Registry

	lanes []*lane // built by Start; nil entries never occur
}

// lane is one worker slot: its transport and its current connection
// (nil once the lane is dead).
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
	requeues   *telemetry.Counter   // jobs returned to the queue on a fault
	reconnects *telemetry.Counter   // connection replacements
	fallbacks  *telemetry.Counter   // jobs evaluated in-process
}

// mkLaneMetrics resolves the handle set for lane i of the registry.
func mkLaneMetrics(reg *telemetry.Registry, i int, name string) laneMetrics {
	label := fmt.Sprintf("{lane=\"%d:%s\"}", i, name)
	return laneMetrics{
		jobs:       reg.Counter("shard_lane_jobs_total" + label),
		jobNanos:   reg.Histogram("shard_lane_job_ns" + label),
		requeues:   reg.Counter("shard_lane_requeues_total" + label),
		reconnects: reg.Counter("shard_lane_reconnects_total" + label),
		fallbacks:  reg.Counter("shard_lane_fallbacks_total" + label),
	}
}

// NumLanes reports the pool's lane count as resolved by Start;
// callers use it to slice batches.
func (p *Pool) NumLanes() int { return len(p.lanes) }

// Start dials every lane's worker, all lanes at once. A pool without
// Transports, or a dial failure, stops the pool and is returned (the
// lowest failing lane's error): a dead remote should fail loudly at
// startup, not degrade silently.
func (p *Pool) Start() error {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Fallback == nil {
		return fmt.Errorf("shard: pool needs a Fallback evaluator")
	}
	if len(p.Transports) == 0 {
		return fmt.Errorf("shard: pool needs at least one Transport")
	}
	p.lanes = make([]*lane, len(p.Transports))
	errs := make([]error, len(p.Transports))
	var wg sync.WaitGroup
	wg.Add(len(p.Transports))
	for i, t := range p.Transports {
		l := &lane{transport: t}
		if p.Metrics != nil {
			l.m = mkLaneMetrics(p.Metrics, i, t.Name())
		}
		p.lanes[i] = l
		go func() {
			defer wg.Done()
			l.conn, errs[i] = t.Dial()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			p.Close()
			return fmt.Errorf("shard: connect lane %d (%s): %w", i, p.Transports[i].Name(), err)
		}
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
// come; crashes and timeouts requeue the affected job, so completion
// order never affects the merged output.
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
	// the pool; surplus lanes just block until the batch finishes and
	// exit.
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

// runLane drives one lane until the batch finishes: take a job, send
// it, receive its result, deliver it — one job in flight. On any
// transport fault the job goes back to the shared queue (its capacity
// covers the whole batch, so this never blocks) and the connection is
// replaced; evaluation is a pure function of the job, so a retry is
// bit-identical wherever it lands. A dead lane, or a job out of
// attempts, is evaluated in-process.
func (p *Pool) runLane(l *lane, queue chan *Job, done <-chan struct{}, deliver func(*Job, *Result)) {
	for {
		var job *Job
		select {
		case <-done:
			return
		case job = <-queue:
		}
		if l.conn == nil || job.attempts >= p.MaxAttempts {
			p.fallbackJob(l, job, deliver)
			continue
		}
		job.attempts++
		var sent time.Time
		if l.m.jobNanos != nil {
			sent = time.Now()
		}
		res, err := RoundTrip(l.conn, job, p.Timeout)
		if err != nil {
			l.m.requeues.Inc()
			queue <- job
			p.reconnect(l)
			continue
		}
		l.m.jobs.Inc()
		if l.m.jobNanos != nil {
			l.m.jobNanos.Observe(time.Since(sent).Nanoseconds())
		}
		deliver(job, res)
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
