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
// makes one pool lane per worker daemon. Each Dial performs the
// magic+version handshake before the connection carries a single job.
type Dialer struct {
	// Addr is the worker daemon's host:port.
	Addr string
	// DialTimeout bounds the TCP connect plus handshake (default 5s).
	DialTimeout time.Duration
	// Version is the protocol version to offer (default
	// shard.ProtocolVersion); tests override it to exercise the
	// handshake rejection path.
	Version int
	// Metrics, when non-nil, records the worker's heartbeat cadence as
	// observed by this client: the gap between consecutive heartbeat
	// frames while a job is running, in a histogram labeled by worker
	// address. The gap exceeds the advertised interval by network plus
	// scheduling delay, making it a cheap heartbeat-RTT proxy.
	Metrics *telemetry.Registry
}

func (d *Dialer) version() int {
	if d.Version != 0 {
		return d.Version
	}
	return shard.ProtocolVersion
}

// Dial connects and handshakes with the worker daemon.
func (d *Dialer) Dial() (shard.Conn, error) {
	timeout := d.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", d.Addr, timeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(timeout))
	if err := shard.WriteFrame(nc, &hello{Magic: Magic, Version: d.version()}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("shardnet: %s: send hello: %w", d.Addr, err)
	}
	br := bufio.NewReader(nc)
	var w welcome
	if err := shard.ReadFrame(br, &w); err != nil {
		nc.Close()
		return nil, fmt.Errorf("shardnet: %s: read welcome: %w", d.Addr, err)
	}
	if w.Magic != Magic {
		nc.Close()
		return nil, fmt.Errorf("shardnet: %s: not a shardnet worker (magic %q)", d.Addr, w.Magic)
	}
	if !w.OK {
		nc.Close()
		return nil, fmt.Errorf("shardnet: %s: handshake rejected: %s", d.Addr, w.Reason)
	}
	nc.SetDeadline(time.Time{})
	c := &tcpConn{
		nc: nc, br: br,
		hb:   time.Duration(w.HeartbeatMillis) * time.Millisecond,
		sent: map[shard.Hash]bool{},
	}
	if d.Metrics != nil {
		c.hbGap = d.Metrics.Histogram(fmt.Sprintf("shardnet_heartbeat_gap_ns{worker=%q}", d.Addr))
	}
	return c, nil
}

// Name identifies the transport by its worker address.
func (d *Dialer) Name() string { return d.Addr }

// tcpConn is one handshaken worker connection.
type tcpConn struct {
	nc   net.Conn
	br   *bufio.Reader
	hb   time.Duration // the worker's advertised heartbeat interval
	sent map[shard.Hash]bool

	// hbGap, when non-nil, observes the wall-clock gap between
	// consecutive heartbeat frames; lastHB is the previous heartbeat's
	// arrival (zero outside a heartbeat run, so gaps never span jobs).
	hbGap  *telemetry.Histogram
	lastHB time.Time
}

// Send ships one job frame, config-by-hash once the blob has crossed
// this connection (forceCfg resends it inline — the refetch path).
func (c *tcpConn) Send(job *shard.Job, forceCfg bool) error {
	wire := job
	if !job.CfgHash.IsZero() && len(job.Cfg) > 0 {
		if forceCfg || !c.sent[job.CfgHash] {
			c.sent[job.CfgHash] = true
		} else {
			stripped := *job
			stripped.Cfg = nil
			wire = &stripped
		}
	}
	c.nc.SetWriteDeadline(time.Now().Add(clientWriteTimeout))
	return shard.WriteJob(c.nc, wire)
}

// Recv awaits the next result frame. timeout, when positive, bounds
// the *silence* between frames: the worker's heartbeats reset it, so a
// long-running job survives any timeout longer than the heartbeat
// interval while a dead or hung worker still trips it. A timeout below
// twice the worker's advertised heartbeat interval is raised to that
// floor — a silence bound shorter than the heartbeat period cannot
// distinguish alive from dead and would otherwise make every job on
// the lane time out, reconnect, and silently fall back in-process.
func (c *tcpConn) Recv(timeout time.Duration) (*shard.Result, error) {
	if timeout > 0 && timeout < 2*c.hb {
		timeout = 2 * c.hb
	}
	for {
		if timeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(timeout))
		} else {
			c.nc.SetReadDeadline(time.Time{})
		}
		payload, err := shard.ReadPayload(c.br)
		if err != nil {
			return nil, err
		}
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

// Close tears the connection down, failing any pending Recv.
func (c *tcpConn) Close() { c.nc.Close() }
