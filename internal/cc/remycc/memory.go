// Package remycc implements the runtime of Remy-generated ("Tao")
// congestion-control protocols: the congestion-signal memory the
// paper's senders track (§3.3, extended here with an ECN-mark-fraction
// signal), the piecewise-constant match-action mapping
// from memory to actions (whiskers, §3.5), and the cc.Algorithm that
// executes it. The search procedure that *produces* whisker trees lives
// in internal/remy.
package remycc

import (
	"fmt"

	"learnability/internal/cc"
	"learnability/internal/units"
)

// NumSignals is the number of congestion signals: the paper's four
// (§3.3) plus the ECN-mark-fraction extension.
const NumSignals = 5

// Signal indexes the congestion signals.
type Signal int

// The signals, in the paper's order, followed by the extension.
const (
	// RecEWMA: EWMA of ACK interarrival times at the receiver, gain 1/8.
	RecEWMA Signal = iota
	// SlowRecEWMA: same as RecEWMA with gain 1/256 (longer history).
	SlowRecEWMA
	// SendEWMA: EWMA of intersend times between sender timestamps
	// echoed in ACKs, gain 1/8.
	SendEWMA
	// RTTRatio: most recent RTT divided by the minimum RTT seen.
	RTTRatio
	// ECNFraction: EWMA of the per-ACK CE-echo indicator (1 when the
	// ACK echoed a congestion mark, else 0), gain 1/8 — the fraction of
	// recent packets an ECN-marking queue flagged. Always 0 when the
	// scenario runs without ECN.
	ECNFraction
)

// String names the signal as in the paper.
func (s Signal) String() string {
	switch s {
	case RecEWMA:
		return "rec_ewma"
	case SlowRecEWMA:
		return "slow_rec_ewma"
	case SendEWMA:
		return "send_ewma"
	case RTTRatio:
		return "rtt_ratio"
	case ECNFraction:
		return "ecn_frac"
	default:
		return fmt.Sprintf("signal(%d)", int(s))
	}
}

// Domain bounds for the memory space. EWMA signals are in seconds;
// the RTT ratio is dimensionless. Values are clamped into the domain
// before whisker lookup.
const (
	MaxEWMA    = 1.0  // seconds: ack spacing beyond this is saturated
	MinRatio   = 1.0  // RTT can never be below the minimum RTT
	MaxRatio   = 16.0 // deep standing queues saturate here
	MaxECNFrac = 1.0  // ecn_frac is a fraction in [0, 1] by construction
)

// Vector is a point in the 5-dimensional memory space:
// [rec_ewma sec, slow_rec_ewma sec, send_ewma sec, rtt_ratio, ecn_frac].
type Vector [NumSignals]float64

// InitialVector is the memory at connection start: no interarrival or
// intersend history, RTT ratio 1, no congestion marks seen.
func InitialVector() Vector { return Vector{0, 0, 0, MinRatio, 0} }

// Clamp returns the vector with each coordinate forced into the domain.
func (v Vector) Clamp() Vector {
	return Vector{
		clamp(v[0], 0, MaxEWMA),
		clamp(v[1], 0, MaxEWMA),
		clamp(v[2], 0, MaxEWMA),
		clamp(v[3], MinRatio, MaxRatio),
		clamp(v[4], 0, MaxECNFrac),
	}
}

// clamp forces x into [lo, hi].
func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SignalMask selects which signals a protocol may observe. The
// knockout study (§3.4) trains protocols with one signal removed;
// masked-out signals stay frozen at their initial values so the
// protocol can never condition on them.
type SignalMask [NumSignals]bool

// AllSignals enables every signal.
func AllSignals() SignalMask { return SignalMask{true, true, true, true, true} }

// Without returns a copy of the mask with signal s disabled.
func (m SignalMask) Without(s Signal) SignalMask {
	m[s] = false
	return m
}

// Enabled reports whether signal s is observable.
func (m SignalMask) Enabled(s Signal) bool { return m[s] }

// Memory tracks the congestion signals across a connection. Beside the
// signals it keeps their clamped vector, each coordinate updated as its
// signal moves, so the per-ACK lookup reads it where it is.
type Memory struct {
	mask SignalMask
	v    Vector // the signals, clamped into the domain

	rec     cc.EWMA
	slowRec cc.EWMA
	send    cc.EWMA
	ratio   float64
	ecn     cc.EWMA

	lastReceivedAt units.Time
	lastSentAt     units.Time
	haveReceived   bool
	haveSent       bool
}

// Reset clears all history (connection start).
func (m *Memory) Reset() {
	m.rec = cc.NewEWMA(1.0 / 8)
	m.slowRec = cc.NewEWMA(1.0 / 256)
	m.send = cc.NewEWMA(1.0 / 8)
	m.ratio = MinRatio
	m.ecn = cc.NewEWMA(1.0 / 8)
	m.v = InitialVector()
	m.haveReceived = false
	m.haveSent = false
}

// Observe folds one ACK's feedback into the memory.
func (m *Memory) Observe(fb cc.Feedback) {
	if m.haveReceived {
		dt := fb.ReceivedAt.Sub(m.lastReceivedAt).Seconds()
		if dt >= 0 {
			if m.mask.Enabled(RecEWMA) {
				m.rec.Observe(dt)
				m.v[RecEWMA] = clamp(m.rec.Value(), 0, MaxEWMA)
			}
			if m.mask.Enabled(SlowRecEWMA) {
				m.slowRec.Observe(dt)
				m.v[SlowRecEWMA] = clamp(m.slowRec.Value(), 0, MaxEWMA)
			}
		}
	}
	m.lastReceivedAt = fb.ReceivedAt
	m.haveReceived = true

	if m.haveSent {
		dt := fb.SentAt.Sub(m.lastSentAt).Seconds()
		if dt >= 0 && m.mask.Enabled(SendEWMA) {
			m.send.Observe(dt)
			m.v[SendEWMA] = clamp(m.send.Value(), 0, MaxEWMA)
		}
	}
	m.lastSentAt = fb.SentAt
	m.haveSent = true

	if m.mask.Enabled(ECNFraction) {
		mark := 0.0
		if fb.ECNEcho {
			mark = 1.0
		}
		m.ecn.Observe(mark)
		m.v[ECNFraction] = clamp(m.ecn.Value(), 0, MaxECNFrac)
	}

	if m.mask.Enabled(RTTRatio) && fb.MinRTT > 0 {
		m.ratio = fb.RTT.Seconds() / fb.MinRTT.Seconds()
		if m.ratio < MinRatio {
			m.ratio = MinRatio
		}
		m.v[RTTRatio] = clamp(m.ratio, MinRatio, MaxRatio)
	}
}

// Vector returns the current memory point, clamped into the domain.
func (m *Memory) Vector() Vector { return m.v }
