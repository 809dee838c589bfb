package main

import (
	"net"
	"sync/atomic"
)

// wireCounts tallies the traffic of every connection a countingListener
// accepted, as the server side of the fabric sees it.
type wireCounts struct {
	bytesIn, bytesOut atomic.Int64 // bytes read from / written to peers
	reads             atomic.Int64 // Read calls that moved at least one byte
}

// countingListener wraps a net.Listener so the traced pass can read
// wire bytes and read calls per job without touching shardnet: the
// harness hands it to Server.Serve in place of the plain listener.
type countingListener struct {
	net.Listener
	counts *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, counts: l.counts}, nil
}

type countingConn struct {
	net.Conn
	counts *wireCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.counts.bytesIn.Add(int64(n))
		c.counts.reads.Add(1)
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.counts.bytesOut.Add(int64(n))
	}
	return n, err
}
