// Package cc defines the interface between the transport machinery in
// netsim and a congestion-control algorithm, plus small shared helpers.
//
// The transport (netsim.Sender) owns reliability: sequence numbers,
// cumulative-ACK processing, duplicate-ACK counting, retransmission, and
// the retransmission timeout. The congestion-control algorithm is pure
// policy: it consumes per-ACK feedback and loss notifications and
// exposes a congestion window (in packets) and a pacing interval (a
// lower bound on the spacing between transmissions), exactly the
// "action" space the paper gives Remy-generated protocols (§3.5).
package cc

import "learnability/internal/units"

// Feedback carries the congestion signals derived from one cumulative
// ACK that acknowledged new data.
type Feedback struct {
	// RTT is the round-trip time measured from the echoed send
	// timestamp of the packet that triggered this ACK.
	RTT units.Duration

	// MinRTT is the minimum RTT observed so far on this connection.
	MinRTT units.Duration

	// SentAt is the sender timestamp echoed in the ACK; consecutive
	// values feed RemyCC's send_ewma (intersend times).
	SentAt units.Time

	// ReceivedAt is the receiver-side arrival timestamp of the packet
	// that triggered the ACK; consecutive values feed rec_ewma and
	// slow_rec_ewma (ACK interarrival times as seen at the receiver).
	ReceivedAt units.Time

	// NewlyAcked is the number of packets newly acknowledged
	// cumulatively by this ACK (>= 1).
	NewlyAcked int

	// ECNEcho reports that the ACK echoed a congestion-experienced (CE)
	// mark: a marking queue on the forward path CE-marked the
	// acknowledged packet instead of dropping it. Always false when the
	// scenario does not enable ECN. Feeds RemyCC's ecn_frac signal.
	ECNEcho bool
}

// Algorithm is a per-connection congestion controller. Implementations
// are not safe for concurrent use; each connection owns one instance.
type Algorithm interface {
	// Reset initializes the controller at the start of a connection (an
	// "on" period in the paper's workload model).
	Reset(now units.Time)

	// OnACK is invoked for each ACK that advances the cumulative
	// acknowledgment point.
	OnACK(now units.Time, fb Feedback)

	// OnLoss is invoked once per loss event inferred from duplicate
	// ACKs (fast retransmit), at most once per window of data.
	OnLoss(now units.Time)

	// OnTimeout is invoked when the retransmission timer fires.
	OnTimeout(now units.Time)

	// Window returns the current congestion window in packets. The
	// transport clamps it to at least 1.
	Window() float64

	// PacingInterval returns the minimum spacing between consecutive
	// packet transmissions; zero disables pacing (pure window/ACK
	// clocking, as in the TCP variants).
	PacingInterval() units.Duration
}

// MinWindow is the smallest congestion window the transport will honor,
// in packets. A connection can always keep one packet in flight (plus
// the RTO), so no algorithm can deadlock itself.
const MinWindow = 1.0

// MaxWindow bounds the congestion window to keep buggy or adversarial
// actions from exhausting memory in no-drop scenarios.
const MaxWindow = 1e6

// ClampWindow applies the transport's window bounds.
func ClampWindow(w float64) float64 {
	if w < MinWindow {
		return MinWindow
	}
	if w > MaxWindow {
		return MaxWindow
	}
	return w
}

// EWMA is an exponentially weighted moving average with a fixed gain for
// new samples, matching the paper's signal definitions (gain 1/8 for
// rec_ewma and send_ewma, 1/256 for slow_rec_ewma). The zero value has
// no samples; the first Observe sets the average directly.
type EWMA struct {
	gain  float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given gain in (0, 1].
func NewEWMA(gain float64) EWMA {
	if gain <= 0 || gain > 1 {
		panic("cc: EWMA gain out of (0, 1]")
	}
	return EWMA{gain: gain}
}

// Observe folds a new sample into the average.
func (e *EWMA) Observe(sample float64) {
	if !e.init {
		e.value = sample
		e.init = true
		return
	}
	e.value += float64(e.gain * (sample - e.value)) // rounded: never fused
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether any sample has been observed.
func (e *EWMA) Initialized() bool { return e.init }

// Reset discards all samples.
func (e *EWMA) Reset() { e.value = 0; e.init = false }
