// Package cubic implements TCP Cubic congestion control (Ha, Rhee, Xu,
// 2008; RFC 8312 window growth), the default Linux algorithm and the
// paper's primary human-designed baseline.
package cubic

import (
	"math"

	"learnability/internal/cc"
	"learnability/internal/units"
)

// Cubic constants from RFC 8312.
const (
	c             = 0.4 // cubic scaling factor (segments/sec^3)
	beta          = 0.7 // multiplicative decrease factor
	initialWindow = 2.0
)

// Cubic is the Cubic congestion controller.
type Cubic struct {
	cwnd     float64
	ssthresh float64

	wMax       float64    // window before the last reduction
	epochStart units.Time // start of the current growth epoch
	inEpoch    bool
	k          float64 // time (sec) to regrow to wMax

	// TCP-friendly region estimate.
	wEst   float64
	ackCnt float64
}

// New returns a Cubic controller ready for a new connection.
func New() *Cubic {
	cb := &Cubic{}
	cb.Reset(0)
	return cb
}

// Reset implements cc.Algorithm.
func (cb *Cubic) Reset(units.Time) {
	cb.cwnd = initialWindow
	cb.ssthresh = 1e9
	cb.wMax = 0
	cb.inEpoch = false
	cb.wEst = 0
	cb.ackCnt = 0
}

// OnACK implements cc.Algorithm.
func (cb *Cubic) OnACK(now units.Time, fb cc.Feedback) {
	for i := 0; i < fb.NewlyAcked; i++ {
		if cb.cwnd < cb.ssthresh {
			cb.cwnd++
			continue
		}
		cb.congestionAvoidance(now, fb.RTT)
	}
}

func (cb *Cubic) congestionAvoidance(now units.Time, rtt units.Duration) {
	if !cb.inEpoch {
		cb.inEpoch = true
		cb.epochStart = now
		if cb.cwnd < cb.wMax {
			cb.k = math.Cbrt((cb.wMax - cb.cwnd) / c)
		} else {
			cb.k = 0
			cb.wMax = cb.cwnd
		}
		cb.wEst = cb.cwnd
		cb.ackCnt = 0
	}
	t := now.Sub(cb.epochStart).Seconds() + rtt.Seconds()
	target := cb.wMax + float64(c*math.Pow(t-cb.k, 3))

	// TCP-friendly window estimate (standard AIMD tracking with
	// Cubic's beta): grows ~0.53 segments per RTT worth of ACKs.
	cb.ackCnt++
	if cb.cwnd > 0 {
		cb.wEst += 3 * (1 - beta) / (1 + beta) / cb.cwnd
	}
	if target < cb.wEst {
		target = cb.wEst
	}

	if target > cb.cwnd {
		// Approach the target over roughly one RTT of ACKs.
		cb.cwnd += (target - cb.cwnd) / cb.cwnd
	} else {
		// Hold (tiny growth keeps the probe alive, as in Linux).
		cb.cwnd += 0.01 / cb.cwnd
	}
}

// OnLoss implements cc.Algorithm: multiplicative decrease by beta, with
// fast convergence (release bandwidth faster when the window is
// shrinking across epochs).
func (cb *Cubic) OnLoss(units.Time) {
	if cb.cwnd < cb.wMax {
		// Fast convergence.
		cb.wMax = cb.cwnd * (1 + beta) / 2
	} else {
		cb.wMax = cb.cwnd
	}
	cb.cwnd *= beta
	if cb.cwnd < 2 {
		cb.cwnd = 2
	}
	cb.ssthresh = cb.cwnd
	cb.inEpoch = false
}

// OnTimeout implements cc.Algorithm.
func (cb *Cubic) OnTimeout(units.Time) {
	cb.wMax = cb.cwnd
	cb.ssthresh = math.Max(cb.cwnd*beta, 2)
	cb.cwnd = 1
	cb.inEpoch = false
}

// Window implements cc.Algorithm.
func (cb *Cubic) Window() float64 { return cb.cwnd }

// PacingInterval implements cc.Algorithm: Cubic is ACK-clocked.
func (cb *Cubic) PacingInterval() units.Duration { return 0 }
