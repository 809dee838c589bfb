package shardnet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"learnability/internal/remy/shard"
	"learnability/internal/telemetry"
)

// clientWriteTimeout bounds any single job-frame write, so a vanished
// worker (network partition, no RST) fails the lane promptly instead
// of hanging a Send forever.
const clientWriteTimeout = time.Minute

// dialTimeout bounds the TCP connect, and the wait for the worker's
// welcome on a new connection's first Recv.
const dialTimeout = 5 * time.Second

// Dialer is the client half of the TCP transport and the one
// shard.Transport a trainer uses: `remytrain -remotes host:port,...`
// makes one pool lane per distinct worker daemon address. Dial takes
// the connection an earlier search parked for the same address, or
// else connects; on a new connection the magic+version handshake rides
// the first job (see tcpConn), so a connection costs no round trip of
// its own, and a parked one costs neither a connect nor a handshake.
type Dialer struct {
	// Addr is the worker daemon's host:port.
	Addr string
	// Metrics, when non-nil, records the worker's heartbeat cadence as
	// observed by this client: the gap between consecutive heartbeat
	// frames while a job is running, in a histogram labeled by worker
	// address. The gap exceeds the advertised interval by network plus
	// scheduling delay, making it a cheap heartbeat-RTT proxy.
	Metrics *telemetry.Registry
}

// Dial returns a connection to the worker daemon: the one a closed
// connection parked for this address if its worker is still there,
// else a new one. A parked connection keeps its handshake and the
// config it shipped last, so a search with the same config sends its
// first job by hash. A new connection's handshake is left to its first
// Send, which writes the hello in front of the job, and its first
// Recv, which reads the welcome before the result.
func (d *Dialer) Dial() (shard.Conn, error) {
	c := unpark(d.Addr)
	if c == nil {
		nc, err := net.DialTimeout("tcp", d.Addr, dialTimeout)
		if err != nil {
			return nil, err
		}
		c = newTCPConn(nc, d.Addr, dialTimeout)
	}
	c.hbGap, c.lastHB = nil, time.Time{}
	if d.Metrics != nil {
		c.hbGap = d.Metrics.Histogram(fmt.Sprintf("shardnet_heartbeat_gap_ns{worker=%q}", d.Addr))
	}
	return c, nil
}

// Name identifies the transport by its worker address.
func (d *Dialer) Name() string { return d.Addr }

// tcpConn is one worker connection. Until its first Send it owes the
// worker a hello, and until its first Recv it awaits the welcome; a
// refused handshake is kept and returned by every later call. Frames
// are encoded into and read into buffers the connection owns, and a
// result is decoded into the caller's Result, so a steady-state round
// trip allocates nothing. A
// connection that Close finds idle is parked for the next Dial to its
// address rather than torn down.
type tcpConn struct {
	nc   net.Conn
	br   *bufio.Reader
	addr string        // the worker's address, for diagnostics
	hb   time.Duration // the worker's advertised heartbeat interval
	// shipped is the hash of the config this connection last sent
	// inline — the one config the worker's session holds.
	shipped shard.Hash

	// greet is set until the hello has gone out, in front of the first
	// job. welcomeWait, while positive, bounds the wait for the welcome
	// the first Recv reads. rejected is the worker's refusal.
	greet       bool
	welcomeWait time.Duration
	rejected    error

	wbuf []byte // the frames of one Send
	rbuf []byte // the payload of the last frame read

	// hbGap, when non-nil, observes the wall-clock gap between
	// consecutive heartbeat frames; lastHB is the previous heartbeat's
	// arrival (zero outside a heartbeat run, so gaps never span jobs).
	hbGap  *telemetry.Histogram
	lastHB time.Time

	// want is the ID of the job whose result is owed, while owed is
	// set. spoiled marks a connection that may not be parked: a call on
	// it failed, it had a second job in flight, or a result came that
	// was not the owed job's. idle, the one field Close reads, is set
	// from the Recv of an owed job's own result on an unspoiled
	// connection until the next Send or Recv.
	want    uint64
	owed    bool
	spoiled bool
	idle    atomic.Bool

	// expire, while the connection is parked, closes it when its time
	// is up; a connection parked again rearms the same timer.
	expire *time.Timer
}

// newTCPConn wraps a fresh connection to the worker at addr whose
// handshake is still to come; welcomeWait bounds the wait for the
// welcome.
func newTCPConn(nc net.Conn, addr string, welcomeWait time.Duration) *tcpConn {
	return &tcpConn{nc: nc, br: bufio.NewReader(nc), addr: addr, greet: true, welcomeWait: welcomeWait}
}

// Send ships one job frame — behind the hello on a connection's first
// Send, in the same write. A hash-bearing job goes by hash alone when
// its config is the one this connection shipped last, which the
// worker's session holds; any other config rides inline and becomes
// the connection's config.
func (c *tcpConn) Send(job *shard.Job) error {
	c.idle.Store(false)
	err := c.send(job)
	c.spoiled = c.spoiled || err != nil || c.owed
	c.owed, c.want = true, job.ID
	return err
}

func (c *tcpConn) send(job *shard.Job) error {
	if c.rejected != nil {
		return c.rejected
	}
	inline := true
	if !job.CfgHash.IsZero() && len(job.Cfg) > 0 {
		if job.CfgHash == c.shipped {
			inline = false
		} else {
			c.shipped = job.CfgHash
		}
	}
	c.wbuf = c.wbuf[:0]
	if c.greet {
		c.wbuf = append(c.wbuf, helloFrame...)
	}
	var err error
	if c.wbuf, err = shard.AppendJobFrame(c.wbuf, job, inline); err != nil {
		return err
	}
	c.greet = false
	c.nc.SetWriteDeadline(time.Now().Add(clientWriteTimeout))
	_, err = c.nc.Write(c.wbuf)
	return err
}

// Recv awaits the next result frame, reading the welcome first on the
// connection's first call, and decodes it into res. timeout, when
// positive, bounds the *silence* between frames: the worker's
// heartbeats reset it, so a long-running job survives any timeout
// longer than the heartbeat interval while a dead or hung worker still
// trips it. A timeout below twice the worker's advertised heartbeat
// interval is raised to that floor — a silence bound shorter than the
// heartbeat period cannot distinguish alive from dead and would
// otherwise make every job on the lane time out, reconnect, and
// silently fall back in-process.
func (c *tcpConn) Recv(timeout time.Duration, res *shard.Result) error {
	c.idle.Store(false)
	err := c.recv(timeout, res)
	c.spoiled = c.spoiled || err != nil || !c.owed || res.ID != c.want
	c.owed = false
	c.idle.Store(!c.spoiled)
	return err
}

func (c *tcpConn) recv(timeout time.Duration, res *shard.Result) error {
	if c.rejected != nil {
		return c.rejected
	}
	if c.welcomeWait > 0 {
		if err := c.readWelcome(); err != nil {
			return err
		}
	}
	if timeout > 0 && timeout < 2*c.hb {
		timeout = 2 * c.hb
	}
	for {
		if timeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(timeout))
		} else {
			c.nc.SetReadDeadline(time.Time{})
		}
		payload, err := shard.ReadPayloadInto(c.br, c.rbuf)
		if err != nil {
			return err
		}
		c.rbuf = payload
		if shard.IsJSONPayload(payload) {
			// The only JSON frame a worker sends after the handshake is
			// a heartbeat: liveness only, so loop and re-arm the
			// deadline. A stale heartbeat left over from a previous job
			// is skipped the same way.
			var rep reply
			if err := shard.DecodeJSON(payload, &rep); err != nil {
				return err
			}
			if rep.Kind != kindHeartbeat {
				return fmt.Errorf("shardnet: unexpected frame kind %q", rep.Kind)
			}
			if c.hbGap != nil {
				now := time.Now()
				if !c.lastHB.IsZero() {
					c.hbGap.Observe(now.Sub(c.lastHB).Nanoseconds())
				}
				c.lastHB = now
			}
			continue
		}
		c.lastHB = time.Time{}
		return shard.DecodeResultInto(payload, res)
	}
}

// readWelcome completes the handshake: it reads the worker's welcome
// and adopts its heartbeat interval. A worker that refuses the hello,
// or a peer whose first frame is no shardnet welcome, is a
// shard.RejectedError, kept for every later call; the socket is closed.
// A failed read is shard.ErrNoHandshake: the connection never came up.
func (c *tcpConn) readWelcome() error {
	c.nc.SetReadDeadline(time.Now().Add(c.welcomeWait))
	payload, err := shard.ReadPayloadInto(c.br, c.rbuf)
	if err != nil {
		return fmt.Errorf("shardnet: %s: %w: read welcome: %w", c.addr, shard.ErrNoHandshake, err)
	}
	c.rbuf = payload
	var w welcome
	var reason string
	switch {
	case !shard.IsJSONPayload(payload) || shard.DecodeJSON(payload, &w) != nil:
		reason = "not a shardnet worker (no welcome)"
	case w.Magic != Magic:
		reason = fmt.Sprintf("not a shardnet worker (magic %q)", w.Magic)
	case !w.OK:
		reason = fmt.Sprintf("a protocol v%d worker refused this v%d client: %s", w.Version, shard.ProtocolVersion, w.Reason)
	default:
		c.welcomeWait = 0
		c.hb = time.Duration(w.HeartbeatMillis) * time.Millisecond
		return nil
	}
	c.rejected = &shard.RejectedError{Worker: c.addr, Reason: reason}
	c.nc.Close()
	return c.rejected
}

// Close parks an idle connection for the next Dial to its address and
// tears any other down, failing a pending Recv.
func (c *tcpConn) Close() {
	if c.idle.Swap(false) && park(c) {
		return
	}
	c.nc.Close()
}

// parked holds the connections Close kept for a later Dial, the way an
// HTTP transport keeps idle connections: at most one per address, each
// closed by its expire timer once its worker's advertised heartbeat
// interval has passed, the one bound the worker names itself and ample
// for back-to-back searches. Parking pays only where one process runs
// several searches against a worker within that interval (the
// benchmark's TCP workloads, a library caller training Tao after Tao);
// remytrain runs one Train a process, so there a parked connection is
// closed by its timer or the exit and no Dial ever takes it.
var parked = struct {
	sync.Mutex
	conns map[string]*tcpConn
}{conns: make(map[string]*tcpConn)}

// park keeps c for the next Dial to c.addr, in place of any connection
// parked there before, and reports whether it did. Nothing is parked
// that Dial could not take: a connection whose worker advertised no
// heartbeat interval, or any on a platform without the peek.
func park(c *tcpConn) bool {
	if c.hb <= 0 || !canPeek {
		return false
	}
	parked.Lock()
	defer parked.Unlock()
	if old := parked.conns[c.addr]; old != nil {
		old.expire.Stop()
		old.nc.Close()
	}
	parked.conns[c.addr] = c
	if c.expire != nil {
		c.expire.Reset(c.hb)
		return true
	}
	c.expire = time.AfterFunc(c.hb, func() {
		parked.Lock()
		mine := parked.conns[c.addr] == c
		if mine {
			delete(parked.conns, c.addr)
		}
		parked.Unlock()
		if mine {
			c.nc.Close()
		}
	})
	return true
}

// unpark takes the connection parked for addr, if there is one, its
// timer has not fired and its worker is still there; a dead one is
// closed. One whose timer has fired stays for the timer to close.
func unpark(addr string) *tcpConn {
	parked.Lock()
	c := parked.conns[addr]
	if c != nil && c.expire.Stop() {
		delete(parked.conns, addr)
	} else {
		c = nil
	}
	parked.Unlock()
	if c != nil && !c.alive() {
		c.nc.Close()
		return nil
	}
	return c
}

// alive reports whether an idle connection's worker is still there:
// nothing is buffered and the socket has nothing to read, neither data
// nor the end of the stream. It must not wait, and it must look at the
// socket: a read at a deadline already past is answered from the
// deadline alone, so a worker that hung up would still pass.
func (c *tcpConn) alive() bool {
	return c.br.Buffered() == 0 && socketIdle(c.nc)
}
