package shardnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"learnability/internal/remy/shard"
	"learnability/internal/telemetry"
)

// Fuzz targets for the two readers of a shardnet socket: the worker's
// session loop (handshake, then job frames) and the coordinator's
// result reader (heartbeats, then a result). Neither may panic on any
// byte stream, and a session must end once its peer hangs up.

// frame renders one length-prefixed frame: JSON for control values,
// the binary codec for jobs and results.
func frame(t testing.TB, v any) []byte {
	t.Helper()
	var b []byte
	var err error
	switch v := v.(type) {
	case *shard.Job:
		b, err = shard.AppendJobFrame(nil, v, true)
	case *shard.Result:
		b, err = shard.AppendResultFrame(nil, v)
	default:
		var buf bytes.Buffer
		err = shard.WriteFrame(&buf, v)
		b = buf.Bytes()
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstWrite returns the bytes a dialed connection writes for its
// first job: the hello and the job frame, in one write.
func firstWrite(t testing.TB, job *shard.Job) []byte {
	t.Helper()
	client, server := net.Pipe()
	defer server.Close()
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(server)
		got <- b
	}()
	c := newTCPConn(client, "pipe", time.Second)
	if err := c.Send(job); err != nil {
		t.Fatal(err)
	}
	c.Close()
	return <-got
}

// fuzzStreams returns byte streams a client could send a worker, built
// from real frames: a hello, jobs with the config inline, by hash after
// it crossed, by hash when it never did, and frames a client never
// sends (a heartbeat, a result, a stale hello, a JSON job). A dialed
// connection's first write, the hello with the first job behind it,
// opens one.
func fuzzStreams(t testing.TB) [][]byte {
	cfg := []byte(`{"Delta":1}`)
	other := []byte(`{"Delta":2}`)
	job := func(id uint64, c []byte, h shard.Hash) *shard.Job {
		j := testJobs(1, 2)[0]
		j.ID, j.Cfg, j.CfgHash = id, c, h
		return j
	}
	hi := frame(t, &hello{Magic: Magic, Version: shard.ProtocolVersion})
	inline := frame(t, job(1, cfg, shard.HashBytes(cfg)))
	byHash := frame(t, job(2, nil, shard.HashBytes(cfg)))
	unshipped := frame(t, job(3, nil, shard.HashBytes(other)))
	plain := frame(t, testJobs(1, 1)[0])
	corrupt := frame(t, job(4, other, shard.HashBytes(cfg)))
	var jsonJob bytes.Buffer
	if err := shard.WriteFrame(&jsonJob, job(5, cfg, shard.HashBytes(cfg))); err != nil {
		t.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][]byte{
		hi,
		cat(hi, plain),
		cat(hi, inline, byHash),
		cat(hi, unshipped),
		cat(hi, inline, unshipped, byHash),
		cat(hi, corrupt, byHash),
		cat(hi, frame(t, &reply{Kind: kindHeartbeat}), plain),
		cat(hi, frame(t, &shard.Result{ID: 1, Scores: []float64{1}})),
		cat(hi, hi),
		frame(t, &hello{Magic: Magic, Version: shard.ProtocolVersion - 1}),
		frame(t, &hello{Magic: "not-shardnet", Version: shard.ProtocolVersion}),
		cat(hi, plain[:len(plain)-3]),
		cat(firstWrite(t, job(1, cfg, shard.HashBytes(cfg))), byHash),
		cat(hi, jsonJob.Bytes(), plain),
	}
}

// FuzzServeConn feeds a client byte stream to Server.ServeConn over an
// in-memory pipe, draining whatever the server writes. The session
// must not panic, the evaluator must only ever see a job whose config
// matches its hash, and the session must end once the client hangs up.
func FuzzServeConn(f *testing.F) {
	for _, s := range fuzzStreams(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var unresolved atomic.Int64
		srv := &Server{
			Eval: func(job *shard.Job) (*shard.Result, error) {
				if !job.CfgHash.IsZero() && shard.HashBytes(job.Cfg) != job.CfgHash {
					unresolved.Add(1)
				}
				return &shard.Result{Scores: []float64{float64(job.SlotLo)}}, nil
			},
			Heartbeat: time.Millisecond,
			Metrics:   telemetry.NewRegistry(),
		}
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			srv.ServeConn(server)
			close(done)
		}()
		go io.Copy(io.Discard, client)
		client.SetWriteDeadline(time.Now().Add(5 * time.Second))
		client.Write(in)
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("session did not end after the client hung up")
		}
		if n := unresolved.Load(); n > 0 {
			t.Fatalf("evaluator saw %d jobs whose config does not match their hash", n)
		}
	})
}

// FuzzTCPConnRecv feeds a worker byte stream to the coordinator's
// tcpConn.Recv on a connection built the way Dial builds it, with the
// welcome still to come: the first Recv reads the welcome, then every
// Recv skips heartbeats and returns the next result. Recv must not
// panic, each call must consume a frame or fail, a refused handshake
// must fail every later call, and the loop must end once the worker
// hangs up.
func FuzzTCPConnRecv(f *testing.F) {
	hi := frame(f, &welcome{Magic: Magic, Version: shard.ProtocolVersion, OK: true, HeartbeatMillis: 1})
	hb := frame(f, &reply{Kind: kindHeartbeat})
	res := frame(f, &shard.Result{ID: 100, Scores: []float64{1, 2}, Fired: []uint64{1, 3}})
	cached := frame(f, &shard.Result{ID: 101, Scores: []float64{0}, Cached: true})
	failed := frame(f, &shard.Result{ID: 102, Err: "evaluation failed"})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, s := range [][]byte{
		cat(hi, res),
		cat(hi, hb, res),
		cat(hi, hb, hb, res),
		cat(hi, res, hb, cached, failed),
		cat(hi, hb, frame(f, map[string]any{"kind": "result"})),
		cat(hi, hb, frame(f, testJobs(1, 1)[0])),
		cat(hi, hi),
		cat(hi, res[:len(res)-1]),
		cat(frame(f, &welcome{Magic: Magic, Version: shard.ProtocolVersion - 1,
			Reason: "protocol version 5, worker speaks 4"}), res),
		cat(frame(f, &welcome{Magic: "not-shardnet", Version: shard.ProtocolVersion, OK: true}), res),
		hi[:len(hi)-2],
		res,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		client, worker := net.Pipe()
		c := newTCPConn(client, "pipe", 5*time.Second)
		c.hbGap = telemetry.NewRegistry().Histogram("gap")
		defer c.Close()
		go func() {
			worker.SetWriteDeadline(time.Now().Add(5 * time.Second))
			worker.Write(in)
			worker.Close()
		}()
		// Every successful Recv consumes at least one whole frame of at
		// least five bytes. Results are received into one reused Result,
		// as a pool lane receives them, and each must read as a fresh
		// decode of its frame does.
		var res shard.Result
		for calls := 0; ; calls++ {
			if calls > len(in)/5 {
				t.Fatalf("%d results from %d bytes", calls, len(in))
			}
			err := c.Recv(5*time.Second, &res)
			var rej *shard.RejectedError
			if errors.As(err, &rej) {
				if again := c.Recv(time.Second, &res); again != err {
					t.Fatalf("Recv after a refused handshake = %v, want %v", again, err)
				}
				return
			}
			if err != nil {
				return
			}
			fresh, err := shard.DecodeResult(c.rbuf)
			if err != nil {
				t.Fatalf("Recv accepted a result DecodeResult refuses: %v", err)
			}
			a, _ := shard.EncodeResult(&res, true)
			b, _ := shard.EncodeResult(fresh, true)
			if !bytes.Equal(a, b) {
				t.Fatalf("result received into a reused Result %+v, decoded afresh %+v", res, fresh)
			}
		}
	})
}
