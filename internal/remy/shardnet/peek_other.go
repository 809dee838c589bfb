//go:build !unix

package shardnet

import "net"

// canPeek reports that socketIdle cannot read a socket without waiting
// on this platform, so no connection is parked: every Dial connects.
const canPeek = false

func socketIdle(net.Conn) bool { return false }
