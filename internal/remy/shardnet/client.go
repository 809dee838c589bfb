package shardnet

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"learnability/internal/remy/shard"
	"learnability/internal/telemetry"
)

// clientWriteTimeout bounds any single job-frame write, so a vanished
// worker (network partition, no RST) fails the lane promptly instead
// of hanging a Send forever.
const clientWriteTimeout = time.Minute

// Dialer is the client half of the TCP transport and the one
// shard.Transport a trainer uses: `remytrain -remotes host:port,...`
// makes one pool lane per distinct worker daemon address. Dial only connects; the
// magic+version handshake rides the connection's first job (see
// tcpConn), so a connection costs no round trip of its own.
type Dialer struct {
	// Addr is the worker daemon's host:port.
	Addr string
	// DialTimeout bounds the TCP connect, and the wait for the
	// worker's welcome on the first Recv (default 5s).
	DialTimeout time.Duration
	// Metrics, when non-nil, records the worker's heartbeat cadence as
	// observed by this client: the gap between consecutive heartbeat
	// frames while a job is running, in a histogram labeled by worker
	// address. The gap exceeds the advertised interval by network plus
	// scheduling delay, making it a cheap heartbeat-RTT proxy.
	Metrics *telemetry.Registry
}

// Dial connects to the worker daemon. The handshake is left to the
// connection's first Send, which writes the hello in front of the job,
// and its first Recv, which reads the welcome before the result.
func (d *Dialer) Dial() (shard.Conn, error) {
	timeout := d.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", d.Addr, timeout)
	if err != nil {
		return nil, err
	}
	c := newTCPConn(nc, d.Addr, timeout)
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
// are encoded into and read into buffers the connection owns, so a
// steady-state round trip allocates only the decoded Result.
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
// connection's first call. timeout, when positive, bounds the
// *silence* between frames: the worker's heartbeats reset it, so a
// long-running job survives any timeout longer than the heartbeat
// interval while a dead or hung worker still trips it. A timeout below
// twice the worker's advertised heartbeat interval is raised to that
// floor — a silence bound shorter than the heartbeat period cannot
// distinguish alive from dead and would otherwise make every job on
// the lane time out, reconnect, and silently fall back in-process.
func (c *tcpConn) Recv(timeout time.Duration) (*shard.Result, error) {
	if c.rejected != nil {
		return nil, c.rejected
	}
	if c.welcomeWait > 0 {
		if err := c.readWelcome(); err != nil {
			return nil, err
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
			return nil, err
		}
		c.rbuf = payload
		if shard.IsJSONPayload(payload) {
			// The only JSON frame a worker sends after the handshake is
			// a heartbeat: liveness only, so loop and re-arm the
			// deadline. A stale heartbeat left over from a previous job
			// is skipped the same way.
			var rep reply
			if err := shard.DecodeJSON(payload, &rep); err != nil {
				return nil, err
			}
			if rep.Kind != kindHeartbeat {
				return nil, fmt.Errorf("shardnet: unexpected frame kind %q", rep.Kind)
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
		return shard.DecodeResult(payload)
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

// Close tears the connection down, failing any pending Recv.
func (c *tcpConn) Close() { c.nc.Close() }
