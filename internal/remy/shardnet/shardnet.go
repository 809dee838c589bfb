// Package shardnet distributes shard jobs across machines: a TCP
// transport for shard.Pool lanes (Dialer, the client half) and the
// worker daemon's serving loop (Server, hosted by cmd/remyshardd).
//
// The wire format is the shard package's length-prefixed v6 frames —
// the binary job/result codec — verbatim; JSON carries only the
// control frames below. On top of it, shardnet adds what a network
// needs:
//
//   - a connection handshake (magic string + protocol version both
//     ways) so mismatched builds are rejected before any job is
//     miscomputed. It costs no round trip of its own: Dial only
//     connects, the hello goes out in the same write as the
//     connection's first job, and the first Recv reads the welcome
//     before the result, so a refusal surfaces as a
//     shard.RejectedError on the pool's first batch. A refusing worker
//     drains the client's first write before closing, so no TCP reset
//     overtakes the refusal;
//   - connections that outlive a search: Close parks an idle, healthy
//     connection (handshake done, every job answered by its own
//     result, no call failed), and the next Dial to the same address
//     takes it if its worker is still there, so a later search pays no
//     connect, no handshake and no config re-ship. At most one per
//     address is parked, and a timer closes it once the worker's
//     heartbeat interval has passed; a Server whose Serve returns
//     closes its sessions, so no parked connection outlives its worker.
//     It pays only where one process runs several searches against a
//     worker within that interval — library callers and the
//     benchmark's TCP workloads; remytrain runs one search a process;
//   - one config per connection: a job's training config rides inline
//     the first time it crosses a connection, and later jobs for the
//     same config carry only its hash. The worker's session holds the
//     last config that arrived inline on it, and the client mirrors
//     that one hash. A hash-only job for any other config ends the
//     session, and the pool's reconnect path re-ships the config;
//   - heartbeat frames from the worker while a job evaluates (one
//     ticker per connection, writing only while a job is busy), so the
//     client's per-result timeout bounds *silence* rather than job
//     length — a slow worker survives, a hung or dead one is detected;
//   - reconnect-with-requeue: a failed send or receive tears the
//     connection down and shard.Pool redials and requeues the lane's
//     one in-flight job;
//   - a content-addressed slot cache on the worker (see Cache, fed by
//     remy.CachedShardEval): a slot's score is a pure function of
//     (config, draw, tree), so a repeated candidate evaluation returns
//     the stored bits verbatim, preserving byte-identical training
//     output by construction.
//
// Determinism contract: shardnet changes where and when a job runs,
// never what it computes. The differential tests in internal/remy
// hold TCP-sharded training byte-equal to in-process training,
// including workers killed mid-generation and warm-cache reruns.
package shardnet

import (
	"bytes"

	"learnability/internal/remy/shard"
)

// Magic identifies the shardnet protocol in the handshake; anything
// else on the socket (a stray HTTP client, a port scan) is rejected
// before a job frame is ever parsed.
const Magic = "remy-shardnet"

// hello is the client's first frame after connecting.
type hello struct {
	// Magic must equal the package's Magic constant.
	Magic string `json:"magic"`
	// Version is the client's shard.ProtocolVersion.
	Version int `json:"version"`
}

// welcome is the server's handshake reply. A rejected handshake
// (OK=false) carries the reason and the server's version so the
// operator can see which side is stale. An accepted one advertises
// the worker's heartbeat interval, so the client can keep its per-job
// silence bound meaningful (see tcpConn.Recv).
type welcome struct {
	Magic           string `json:"magic"`
	Version         int    `json:"version"`
	OK              bool   `json:"ok"`
	Reason          string `json:"reason,omitempty"`
	HeartbeatMillis int64  `json:"hb_ms,omitempty"`
}

// kindHeartbeat tags the one control frame a server sends after the
// handshake; results travel as binary frames, never as replies.
const kindHeartbeat = "hb"

// reply is a server→client control frame after the handshake: a
// liveness heartbeat while a job evaluates.
type reply struct {
	Kind string `json:"kind"`
}

// helloFrame is the client's first frame, the same on every
// connection, rendered once.
var helloFrame = func() []byte {
	var b bytes.Buffer
	if err := shard.WriteFrame(&b, &hello{Magic: Magic, Version: shard.ProtocolVersion}); err != nil {
		panic(err)
	}
	return b.Bytes()
}()
