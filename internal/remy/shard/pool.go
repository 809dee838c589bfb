package shard

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"learnability/internal/telemetry"
)

// Transport establishes worker connections for one pool lane:
// internal/remy/shardnet's Dialer reaches a remyshardd daemon over TCP,
// and tests script their own. Dial is called at pool startup and again
// whenever a lane's connection fails (the reconnect-with-requeue
// path), so a Transport must be safe to dial repeatedly.
type Transport interface {
	// Dial establishes one worker connection, or hands back one an
	// earlier Conn.Close kept (shardnet's Dialer takes its address's
	// parked connection when the worker is still there). It may leave
	// a new connection's handshake to its first Send and Recv, so a
	// worker that refuses the connection shows as a RejectedError from
	// the first Recv. A worker that is unreachable fails Dial.
	Dial() (Conn, error)
	// Name identifies the worker for diagnostics (its address).
	Name() string
}

// Conn is one live worker connection. A pool lane keeps one job in
// flight on it: Send, then Recv that job's result (see RoundTrip). A
// Conn is used by one lane at a time, on lane 0 from the goroutine
// calling Pool.Start and Pool.Do; implementations need not be
// concurrency-safe beyond surviving Close during a pending Recv.
type Conn interface {
	// Send ships one job frame. A hash-bearing job's config rides
	// inline unless it is the config this connection shipped last (see
	// shardnet's tcpConn.Send). A failed Send leaves the connection
	// unusable.
	Send(job *Job) error
	// Recv awaits the next result frame and decodes it into res,
	// overwriting every field and reusing the storage of its slices
	// (DecodeResultInto), so a caller that receives into the same
	// Result each time allocates nothing in steady state. The first
	// Recv on a connection whose Dial only connected completes the
	// handshake first: it reads the worker's welcome, and a refusal is
	// a RejectedError. timeout, when positive, bounds the wait;
	// transports with heartbeats (shardnet) apply it to the silence
	// between frames, so long jobs survive as long as the worker keeps
	// proving liveness. An expired or failed Recv leaves the
	// connection unusable — the pool discards it and redials — and
	// res's fields unspecified.
	Recv(timeout time.Duration, res *Result) error
	// Close ends the caller's use of the connection and fails any
	// pending Recv. It may park an idle, healthy connection for a later
	// Dial to the same worker instead of tearing it down (shardnet's
	// tcpConn does); a connection with a pending Recv, or on which a
	// call failed, is torn down.
	Close()
}

// RejectedError is a worker's refusal of a connection at its
// handshake: a worker of another protocol version, or a peer that is
// not a worker at all. Redialing cannot help, and evaluating in-process
// would hide a broken deployment, so Pool.Do fails the batch on it:
// the job is neither requeued nor evaluated in-process.
type RejectedError struct {
	// Worker names the worker (its address).
	Worker string
	// Reason says why, naming both protocol versions on a mismatch.
	Reason string
}

// Error names the worker and the reason.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("shard: worker %s rejected the connection: %s", e.Worker, e.Reason)
}

// ErrNoHandshake marks a Recv that failed before the worker answered
// the connection's hello: the connection never came up, as if its Dial
// had failed, and Pool.Do treats it as that Dial's failure. On a
// lane's connection from Start it fails the batch, as Start would
// have; on a redialed one the job is requeued and the lane falls back
// in-process, as after a failed redial.
var ErrNoHandshake = errors.New("no handshake")

// RoundTrip sends one job and awaits its result in a new Result, for
// tests and one-shot tools; a pool lane receives into a Result the pool
// keeps. A result for another job means the connection is broken and
// is an error.
func RoundTrip(c Conn, job *Job, timeout time.Duration) (*Result, error) {
	res := &Result{}
	if err := roundTrip(c, job, timeout, res); err != nil {
		return nil, err
	}
	return res, nil
}

// roundTrip is one pool lane step: send job, receive its result into
// res.
func roundTrip(c Conn, job *Job, timeout time.Duration, res *Result) error {
	if err := c.Send(job); err != nil {
		return err
	}
	if err := c.Recv(timeout, res); err != nil {
		return err
	}
	if res.ID != job.ID {
		return fmt.Errorf("shard: worker answered job %d with a result for job %d", job.ID, res.ID)
	}
	return nil
}

// maxAttempts is the number of worker deliveries per job before a
// pool evaluates it in-process.
const maxAttempts = 3

// Pool fans shard jobs out over a fixed set of worker lanes and merges
// results by batch position, so the caller sees deterministic output
// regardless of which lane finished which job when. Each lane is one
// worker reached through an entry of Transports (one per distinct
// `remytrain -remotes` address) and keeps one job in flight; the
// trainer cuts a batch into one job per lane, sized for that lane's
// worker, and Do hands job i to lane i. Jobs past the lane count, and
// jobs requeued after a fault, wait in a shared queue for the first
// free lane. A lane whose worker crashes, writes garbage, or exceeds
// Timeout is reconnected and its in-flight job requeued for any lane;
// a lane whose redial fails is dead and evaluates in-process from then
// on, and after three worker deliveries a job is evaluated in-process,
// so a batch always completes with the same bits. A worker that
// rejects its connection (RejectedError) fails the batch instead.
//
// Lane 0 is the caller's: Start dials it and Do drives it on the
// calling goroutine; lanes 1… are goroutines that live from Start to
// Close, so a one-worker pool starts none. A batch hands the lanes its
// jobs through the pool's queue, and a worker's result is received into
// the Result the pool keeps for its batch position, so a steady batch
// allocates nothing.
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
	// Metrics, when non-nil, receives per-lane fabric metrics under
	// names labeled lane="<index>:<transport name>":
	// shard_lane_jobs_total, shard_lane_job_ns (job latency),
	// shard_lane_requeues_total, shard_lane_reconnects_total and
	// shard_lane_fallbacks_total (jobs evaluated in-process). Nil keeps
	// the dispatch path free of clock reads.
	Metrics *telemetry.Registry

	lanes   []*lane // built by Start; nil entries never occur
	running sync.WaitGroup

	// The batch in progress, guarded by mu. Idle lanes, Do's lane 0 too,
	// wait on changed: broadcast as a batch starts or settles and on Close.
	mu      sync.Mutex
	changed sync.Cond
	queue   []*Job    // jobs no lane owns or holds, taken from head
	head    int       // next job of queue to take
	results []*Result // the batch's results, by batch position; what Do returns
	left    int       // jobs without a result
	held    int       // jobs lanes are working on
	err     error     // the batch's first failure
	closing bool      // Close was called: lanes exit

	// recv holds one Result per batch position, into which the lane
	// serving that position's job receives the worker's answer; each is
	// reused by the next batch. Only Do resizes it, before any lane
	// takes a job.
	recv []Result
}

// lane is one worker slot: its transport and its current connection
// (nil once the lane is dead), and whether that connection came from a
// redial rather than from Start.
type lane struct {
	transport Transport
	conn      Conn
	redialed  bool
	own       *Job // the job Do handed this lane, not yet taken; guarded by Pool.mu
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

// Start dials every lane's worker, all lanes at once (lane 0 on the
// calling goroutine), then starts the goroutines of lanes 1…. A pool
// without Transports, or a dial failure, stops the pool and is
// returned (the lowest failing lane's error): a dead remote should
// fail loudly at startup, not degrade silently.
func (p *Pool) Start() error {
	if p.Fallback == nil {
		return fmt.Errorf("shard: pool needs a Fallback evaluator")
	}
	if len(p.Transports) == 0 {
		return fmt.Errorf("shard: pool needs at least one Transport")
	}
	p.lanes = make([]*lane, len(p.Transports))
	errs := make([]error, len(p.Transports))
	var wg sync.WaitGroup
	for i, t := range p.Transports {
		l := &lane{transport: t}
		if p.Metrics != nil {
			l.m = mkLaneMetrics(p.Metrics, i, t.Name())
		}
		p.lanes[i] = l
		if i > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.conn, errs[i] = t.Dial()
			}()
		}
	}
	p.lanes[0].conn, errs[0] = p.Transports[0].Dial()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			p.Close()
			return fmt.Errorf("shard: connect lane %d (%s): %w", i, p.Transports[i].Name(), err)
		}
	}
	p.changed.L = &p.mu
	p.closing = false
	p.running.Add(len(p.lanes) - 1)
	for _, l := range p.lanes[1:] {
		go p.runLane(l)
	}
	return nil
}

// Close stops the lane goroutines and closes every lane's connection,
// which the transport may keep for a later pool (see Conn.Close). It
// must not race with Do. The pool can be restarted with Start after.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closing = true
	p.changed.Broadcast()
	p.mu.Unlock()
	p.running.Wait()
	for _, l := range p.lanes {
		if l != nil && l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
	}
	p.lanes = nil
}

// Do evaluates a batch of jobs and returns their results in batch
// order. It blocks until every job has a result, or until a
// deterministic evaluation error or a rejected connection fails the
// batch and no lane still holds one of its jobs. Job i goes to lane i
// and any further job to the first free lane; crashes and timeouts
// requeue the affected job for any lane, so completion order never
// affects the merged output. Do drives lane 0 itself until the batch
// settles, waiting only while that lane has no job to take.
//
// The returned slice, and the Results a worker answered, are the
// pool's: they stay valid until the next Do or Close, which reuse
// them. A job evaluated in-process has whatever Result the Fallback
// returned (decoded, if it was a stored one).
func (p *Pool) Do(jobs []*Job) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if len(p.lanes) == 0 {
		return nil, fmt.Errorf("shard: Do on a pool that is not started")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recv) < len(jobs) {
		p.recv = slices.Grow(p.recv, len(jobs)-len(p.recv))[:len(jobs)]
	}
	results := slices.Grow(p.results[:0], len(jobs))[:len(jobs)]
	clear(results)
	for i, job := range jobs {
		job.index = i
		job.attempts = 0
	}
	owned := min(len(jobs), len(p.lanes))
	for i, l := range p.lanes[:owned] {
		l.own = jobs[i]
	}
	p.queue, p.head = append(p.queue[:0], jobs[owned:]...), 0
	p.results, p.left, p.err = results, len(jobs), nil
	p.changed.Broadcast()
	for p.left > 0 && (p.err == nil || p.held > 0) {
		if !p.step(p.lanes[0]) {
			p.changed.Wait()
		}
	}
	err := p.err
	for _, l := range p.lanes {
		l.own = nil // a failed batch leaves jobs untaken
	}
	clear(p.queue)
	p.queue, p.head, p.err = p.queue[:0], 0, nil
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runLane drives lane l (one of lanes 1…) from Start to Close.
func (p *Pool) runLane(l *lane) {
	defer p.running.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closing {
		if !p.step(l) {
			p.changed.Wait()
		}
	}
}

// step runs one job on lane l, with p.mu held: take its own job, or
// else the shared queue's next, send it, receive its result, deliver
// it — one job in flight. It reports false, having done nothing, when
// l has no job to take. On any transport fault the job goes back to the
// end of the shared queue and the connection is replaced; evaluation is
// a pure function of the job, so a retry is bit-identical wherever it
// lands. A dead lane, or a job out of attempts, is evaluated in-process.
func (p *Pool) step(l *lane) bool {
	job := l.own
	switch {
	case p.err != nil:
		return false
	case job != nil:
		l.own = nil
	case p.head < len(p.queue):
		job = p.queue[p.head]
		p.queue[p.head] = nil
		p.head++
	default:
		return false
	}
	p.held++
	p.mu.Unlock()
	res, err := p.serve(l, job)
	p.mu.Lock()
	p.held--
	switch {
	case err == nil && res.Err == "":
		p.results[job.index] = res
		p.left--
	case err == nil:
		p.fail(fmt.Errorf("shard: job %d failed: %s", job.ID, res.Err))
	case errors.As(err, new(*RejectedError)), errors.Is(err, ErrNoHandshake) && !l.redialed:
		p.fail(err)
	default:
		// A transport fault: the job goes back for any lane, and one
		// idle lane is woken to take it while this one redials.
		l.m.requeues.Inc()
		p.queue = append(p.queue, job)
		p.changed.Signal()
		p.mu.Unlock()
		p.reconnect(l, err)
		p.mu.Lock()
	}
	if p.left == 0 || p.err != nil && p.held == 0 {
		p.changed.Broadcast() // the batch settled: wake Do
	}
	return true
}

// fail records the batch's first failure; p.mu is held.
func (p *Pool) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// serve answers one job on lane l: a round trip on its connection, or
// in-process for a dead lane or a job out of attempts. Only a transport
// fault or a rejected connection is an error; an evaluation failure is
// the result's Err.
func (p *Pool) serve(l *lane, job *Job) (*Result, error) {
	if l.conn == nil || job.attempts >= maxAttempts {
		l.m.jobs.Inc()
		l.m.fallbacks.Inc()
		res, err := p.Fallback(job)
		if err == nil && res.stored != nil {
			res, err = res.decodeStored()
		}
		if err != nil {
			return &Result{ID: job.ID, Err: err.Error()}, nil
		}
		res.ID = job.ID
		return res, nil
	}
	job.attempts++
	var sent time.Time
	if l.m.jobNanos != nil {
		sent = time.Now()
	}
	res := &p.recv[job.index]
	if err := roundTrip(l.conn, job, p.Timeout, res); err != nil {
		return nil, err
	}
	l.m.jobs.Inc()
	if l.m.jobNanos != nil {
		l.m.jobNanos.Observe(time.Since(sent).Nanoseconds())
	}
	return res, nil
}

// reconnect replaces a lane's connection after the failure err. If
// the redial fails, or err says the redialed connection never answered
// its hello, the lane is marked dead and its future jobs run
// in-process.
func (p *Pool) reconnect(l *lane, err error) {
	l.conn.Close()
	l.conn = nil
	if !errors.Is(err, ErrNoHandshake) {
		l.m.reconnects.Inc()
		l.conn, err = l.transport.Dial()
		l.redialed = true
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard: reconnect to %s failed (%v); lane falls back in-process\n",
			l.transport.Name(), err)
		l.conn = nil
	}
}
