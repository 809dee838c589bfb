// Package packet defines the simulated packet exchanged between
// endpoints, queues, and links.
package packet

import "learnability/internal/units"

// MTU is the packet size, in bytes, used for all data packets in this
// repository's experiments (matching the 1500-byte packets used by the
// paper's ns-2 setup).
const MTU = 1500

// ACKSize is the size of acknowledgment packets in bytes.
const ACKSize = 40

// Packet is a simulated packet. Data packets travel from a sender to a
// receiver through queues and links; ACKs travel back over a
// delay-only reverse path (see the netsim package).
type Packet struct {
	// Flow identifies the sender-receiver pair this packet belongs to.
	Flow int

	// Seq is the sequence number of the packet within its flow,
	// counting packets (not bytes) from zero.
	Seq int64

	// Size is the wire size of the packet in bytes.
	Size int

	// SentAt is the sender's timestamp at transmission. It is echoed
	// back in the ACK so the sender can compute RTT and intersend-time
	// signals without keeping per-packet state.
	SentAt units.Time

	// IsACK marks acknowledgment packets.
	IsACK bool

	// AckSeq is, on an ACK, the cumulative sequence number: the highest
	// sequence number s such that every packet with Seq <= s has been
	// received.
	AckSeq int64

	// AckedSeq is, on an ACK, the sequence number of the specific data
	// packet whose arrival triggered this ACK (which may be above
	// AckSeq when packets arrive out of order after a loss).
	AckedSeq int64

	// EchoSentAt is, on an ACK, the SentAt of the packet that triggered
	// it.
	EchoSentAt units.Time

	// ReceivedAt is, on an ACK, the receiver-side arrival time of the
	// packet that triggered it. Interarrival times of these receiver
	// timestamps feed RemyCC's rec_ewma and slow_rec_ewma signals.
	ReceivedAt units.Time

	// Retransmit marks transport-layer retransmissions (used by tests
	// and the time-domain experiment; retransmitted bytes do not count
	// toward goodput a second time).
	Retransmit bool

	// EnqueuedAt is stamped by a queue when the packet is accepted and
	// is used by CoDel to compute sojourn time. It is queue-local
	// scratch state: each queue overwrites it on Enqueue.
	EnqueuedAt units.Time

	// ECT marks the packet as ECN-capable transport: marking queues may
	// CE-mark it instead of dropping it. Set by the sender on data
	// packets when ECN is enabled; never set on ACKs.
	ECT bool

	// CE is the congestion-experienced mark. On a data packet it is set
	// by a marking queue along the path; on an ACK it echoes the
	// acknowledged data packet's CE back to the sender.
	CE bool
}
