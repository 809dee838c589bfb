// Package vegas implements TCP Vegas congestion control (Brakmo,
// O'Malley, Peterson, SIGCOMM 1994). The paper cites Vegas as the
// canonical delay-based protocol that performs well against its own
// kind but is "squeezed out" by loss-triggered TCP (§4.5); this
// implementation lets the repository demonstrate that effect directly.
package vegas

import (
	"learnability/internal/cc"
	"learnability/internal/units"
)

// Vegas parameters (in packets of queued data along the path).
const (
	alpha         = 2.0
	betaThresh    = 4.0
	gamma         = 1.0
	initialWindow = 2.0
)

// Vegas is the Vegas congestion controller.
type Vegas struct {
	cwnd      float64
	baseRTT   units.Duration
	ssthresh  float64
	slowStart bool
}

// New returns a Vegas controller ready for a new connection.
func New() *Vegas {
	v := &Vegas{}
	v.Reset(0)
	return v
}

// Reset implements cc.Algorithm.
func (v *Vegas) Reset(units.Time) {
	v.cwnd = initialWindow
	v.baseRTT = 0
	v.ssthresh = 1e9
	v.slowStart = true
}

// OnACK implements cc.Algorithm. diff = cwnd*(1 - baseRTT/RTT) is the
// estimated number of packets queued along the path; Vegas aims to keep
// it between alpha and beta.
func (v *Vegas) OnACK(_ units.Time, fb cc.Feedback) {
	if v.baseRTT == 0 || fb.RTT < v.baseRTT {
		v.baseRTT = fb.RTT
	}
	if fb.RTT <= 0 {
		return
	}
	diff := v.cwnd * (1 - v.baseRTT.Seconds()/fb.RTT.Seconds())
	if v.slowStart {
		if diff > gamma || v.cwnd >= v.ssthresh {
			v.slowStart = false
		} else {
			// Vegas doubles every other RTT; approximate with +1/2 per
			// acked packet.
			v.cwnd += float64(0.5 * float64(fb.NewlyAcked))
			return
		}
	}
	perAck := float64(1 / v.cwnd * float64(fb.NewlyAcked))
	switch {
	case diff < alpha:
		v.cwnd += perAck
	case diff > betaThresh:
		v.cwnd -= perAck
		if v.cwnd < 2 {
			v.cwnd = 2
		}
	}
}

// OnLoss implements cc.Algorithm.
func (v *Vegas) OnLoss(units.Time) {
	v.cwnd *= 0.75
	if v.cwnd < 2 {
		v.cwnd = 2
	}
	v.ssthresh = v.cwnd
	v.slowStart = false
}

// OnTimeout implements cc.Algorithm.
func (v *Vegas) OnTimeout(units.Time) {
	v.ssthresh = v.cwnd / 2
	if v.ssthresh < 2 {
		v.ssthresh = 2
	}
	v.cwnd = 2
	v.slowStart = true
}

// Window implements cc.Algorithm.
func (v *Vegas) Window() float64 { return v.cwnd }

// PacingInterval implements cc.Algorithm.
func (v *Vegas) PacingInterval() units.Duration { return 0 }
