//go:build unix

package shardnet

import (
	"net"
	"syscall"
)

// canPeek reports that socketIdle can read a socket without waiting
// here, so Close parks connections.
const canPeek = true

// socketIdle reports whether nc is an open socket with nothing to
// read, without waiting: a non-blocking peek answers "would block" on
// an idle connection, and 0 bytes on one whose peer hung up.
func socketIdle(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	idle := false
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, perr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		idle = perr == syscall.EAGAIN || perr == syscall.EWOULDBLOCK
		return true
	})
	return err == nil && idle
}
