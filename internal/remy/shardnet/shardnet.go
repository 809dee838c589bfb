// Package shardnet distributes shard jobs across machines: a TCP
// transport for shard.Pool lanes (Dialer, the client half) and the
// worker daemon's serving loop (Server, hosted by cmd/remyshardd).
//
// The wire format is the shard package's length-prefixed v4 frames —
// the binary job/result codec and config-by-hash shipping — verbatim;
// JSON carries only the control frames below. On top of it, shardnet
// adds what a network needs:
//
//   - a connection handshake (magic string + protocol version both
//     ways) so mismatched builds are rejected before any job is
//     miscomputed;
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
