package netsim

import (
	"math"

	"learnability/internal/cc"
	"learnability/internal/packet"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// RTO bounds per RFC 6298 (the 1-second floor is also ns-2's default,
// the simulator behind the paper's testing scenarios; it prevents
// spurious timeouts when FIFO service makes per-flow ACK arrivals
// bursty).
const (
	minRTO = units.Second
	maxRTO = 60 * units.Second
)

// lossReorderThreshold is the classic three-duplicate-ACK rule
// expressed over the SACK scoreboard: a packet is deemed lost once
// three later packets have been acknowledged (RFC 6675 DupThresh).
const lossReorderThreshold = 3

// Sender is the transport endpoint of a flow: it owns reliability and
// enforces the congestion window and pacing interval chosen by its
// congestion-control algorithm. Loss recovery is SACK-based (RFC
// 6675-style scoreboard with pipe accounting), matching the Linux
// stacks behind the paper's Cubic baseline: every ACK identifies the
// specific packet that triggered it, the sender marks holes lost after
// three later deliveries, and retransmits them as the window allows.
// While "on" the sender has infinite backlog (the paper's senders are
// bulk transfers gated by the on/off workload process).
//
// Its pacing timer and its retransmission timer are two deadlines of
// one sim.Deadlines, so a sender holds at most one scheduler entry,
// keyed at the earlier of the two: re-arming the RTO on an ACK while the
// next paced send is due first costs no heap work. Each still fires
// exactly when, and in the order among simultaneous events, a timer of
// its own would.
type Sender struct {
	sched  *sim.Scheduler
	flow   int
	alg    cc.Algorithm
	egress Deliverer
	stats  *FlowStats
	pool   *packet.Pool

	on bool

	// ecn stamps outgoing data packets as ECN-capable (ECT) so marking
	// queues CE-mark them instead of dropping. Set per run by
	// scenario.Spec.ECN; reset by Reinit.
	ecn bool

	// Transport state.
	nextSeq int64 // next new sequence number to send
	sndUna  int64 // lowest unacknowledged sequence number

	// Scoreboard (RFC 6675-style). All entries lie in [sndUna,
	// nextSeq); sb stores the per-sequence SACKED/LOST/RETX flags in a
	// ring buffer. The interface is the seam in-package tests use to
	// swap in their map-based oracle.
	sb scoreboard
	// lostQueue[lostHead:] holds lost seqs pending retransmission,
	// ascending. Consumption advances lostHead rather than re-slicing
	// from the front, so the backing array's capacity survives a drain
	// and steady-state loss recovery appends without allocating.
	lostQueue     []int64
	lostHead      int
	highestSacked int64 // highest individually acked seq; -1 none
	lossScan      int64 // all seqs below this have been classified
	// excluded counts scoreboard entries not in the pipe: sacked, or
	// lost and not yet retransmitted. pipe = outstanding - excluded.
	excluded int64

	// Recovery episode state.
	inRecovery bool
	recover    int64 // highest seq outstanding when the episode began

	// RTT estimation (RFC 6298).
	srtt, rttvar units.Duration
	hasRTT       bool
	minRTT       units.Duration
	rtoBackoff   int

	// timers holds the pace deadline (paceDeadline) and the RTO
	// (rtoDeadline) in one scheduler entry.
	timers sim.Deadlines

	// nextSendTime is the earliest time the next packet may leave,
	// according to the algorithm's pacing interval.
	nextSendTime units.Time
}

// NewSender creates a sender for the given flow, set up by Reinit to use
// alg for congestion control and to send into egress.
func NewSender(sched *sim.Scheduler, flow int, alg cc.Algorithm, egress Deliverer, stats *FlowStats) *Sender {
	s := &Sender{sched: sched, flow: flow, stats: stats, sb: newRingScoreboard()}
	s.timers.Init(sched, 2, s.onDeadline)
	s.Reinit(alg, egress)
	return s
}

// SetPool attaches the simulation's packet pool, from which outgoing
// data packets are drawn.
func (s *Sender) SetPool(p *packet.Pool) { s.pool = p }

// SetECN switches ECT stamping of outgoing data packets on or off.
// With it on, marking queues CE-mark this flow's packets instead of
// dropping them, and the CE echo returns in Feedback.ECNEcho.
func (s *Sender) SetECN(on bool) { s.ecn = on }

// Reinit sets a sender's per-run state: a congestion-control algorithm
// and an egress, off, nothing sent, no RTT sample and both timers
// disarmed. NewSender ends with it, and a recycled world calls it for
// the next run (after the scheduler's Reset), keeping everything tied to
// the sender's identity: the scheduler, flow ID, stats and pool
// bindings, and the timers' entry. The scoreboard is rewound in place,
// keeping the capacity it grew to.
func (s *Sender) Reinit(alg cc.Algorithm, egress Deliverer) {
	if alg == nil {
		panic("netsim: sender with nil congestion-control algorithm")
	}
	if egress == nil {
		panic("netsim: sender with nil egress")
	}
	s.alg = alg
	s.egress = egress
	s.on = false
	s.ecn = false
	s.nextSeq = 0
	s.sndUna = 0
	s.sb.reset(0)
	s.lostQueue = s.lostQueue[:0]
	s.lostHead = 0
	s.highestSacked = -1
	s.lossScan = 0
	s.excluded = 0
	s.inRecovery = false
	s.recover = 0
	s.srtt = 0
	s.rttvar = 0
	s.hasRTT = false
	s.minRTT = units.Duration(math.MaxInt64)
	s.rtoBackoff = 0
	s.timers.Reset()
	s.nextSendTime = 0
}

// Outstanding reports the number of packets between the cumulative ack
// point and the highest sequence sent.
func (s *Sender) Outstanding() int64 { return s.nextSeq - s.sndUna }

// pipe estimates the number of packets currently in the network.
func (s *Sender) pipe() int64 { return s.Outstanding() - s.excluded }

// SetOn switches offered load on or off. Turning on starts a fresh
// connection for congestion-control purposes: the algorithm is Reset,
// matching the paper's model where each "on" period is a new transfer.
// Turning off stops new data, but reliability keeps running until
// outstanding data is acknowledged.
func (s *Sender) SetOn(now units.Time, on bool) {
	if on == s.on {
		return
	}
	s.on = on
	s.stats.setOn(now, on)
	if on {
		s.alg.Reset(now)
		s.rtoBackoff = 0
		s.nextSendTime = now
		s.trySend(now)
	}
}

// window returns the clamped congestion window in whole packets.
func (s *Sender) window() int64 {
	return int64(math.Floor(cc.ClampWindow(s.alg.Window())))
}

// OnAck processes an arriving ACK (every received packet triggers
// one).
func (s *Sender) OnAck(now units.Time, a *packet.Packet) {
	if !a.IsACK || a.Flow != s.flow {
		panic("netsim: sender got a non-ACK or misrouted packet")
	}

	// Selective information: the packet that triggered this ACK.
	// Sequences never sent are ignored (see the cumulative clamp
	// below).
	if seq := a.AckedSeq; seq >= s.sndUna && seq < s.nextSeq {
		if fl := s.sb.get(seq); fl&sbSacked == 0 {
			wasExcluded := sbExcluded(fl)
			s.sb.or(seq, sbSacked)
			if !wasExcluded {
				s.excluded++
			}
			if seq > s.highestSacked {
				s.highestSacked = seq
			}
		}
	}

	// Cumulative advance. An ACK beyond the highest sequence actually
	// sent indicates corruption or misuse; clamp rather than let the
	// pipe accounting go negative.
	if newUna := a.AckSeq + 1; newUna > s.sndUna && newUna <= s.nextSeq {
		newly := int(newUna - s.sndUna)
		s.excluded -= s.sb.advance(newUna)
		s.sndUna = newUna
		if s.lossScan < s.sndUna {
			s.lossScan = s.sndUna
		}
		if s.inRecovery && s.sndUna > s.recover {
			s.inRecovery = false
		}

		rtt := now.Sub(a.EchoSentAt)
		s.observeRTT(rtt)
		s.rtoBackoff = 0
		s.alg.OnACK(now, cc.Feedback{
			RTT:        rtt,
			MinRTT:     s.minRTT,
			SentAt:     a.EchoSentAt,
			ReceivedAt: a.ReceivedAt,
			NewlyAcked: newly,
			ECNEcho:    a.CE,
		})
		s.resetRTO()
	}

	s.classifyLosses(now)
	s.trySend(now)
}

// classifyLosses marks packets lost once lossReorderThreshold later
// packets have been delivered, and opens a recovery episode (one
// congestion response per window) when a new hole appears.
func (s *Sender) classifyLosses(now units.Time) {
	limit := s.highestSacked - lossReorderThreshold
	newLoss := false
	for ; s.lossScan <= limit; s.lossScan++ {
		seq := s.lossScan
		// Unclassified sequences cannot carry sbRetx (retransmission
		// requires a prior sbLost, which the check above would catch),
		// so a fresh hole here always enters the loss queue.
		fl := s.sb.get(seq)
		if fl&(sbSacked|sbLost) != 0 {
			continue
		}
		s.sb.or(seq, sbLost)
		s.excluded++
		s.lostQueue = append(s.lostQueue, seq)
		newLoss = true
	}
	if newLoss && !s.inRecovery {
		s.inRecovery = true
		s.recover = s.nextSeq - 1
		s.alg.OnLoss(now)
	}
}

func (s *Sender) observeRTT(rtt units.Duration) {
	if rtt <= 0 {
		return
	}
	if rtt < s.minRTT {
		s.minRTT = rtt
	}
	if !s.hasRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.hasRTT = true
		return
	}
	// RFC 6298 with alpha=1/8, beta=1/4.
	diff := s.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	s.rttvar += (diff - s.rttvar) / 4
	s.srtt += (rtt - s.srtt) / 8
}

// rto computes the current retransmission timeout, including
// exponential backoff (which also applies to the initial 1 s timeout,
// before any RTT sample exists).
func (s *Sender) rto() units.Duration {
	r := units.Second
	if s.hasRTT {
		r = s.srtt + 4*s.rttvar
		if r < minRTO {
			r = minRTO
		}
	}
	for i := 0; i < s.rtoBackoff; i++ {
		r *= 2
		if r >= maxRTO {
			return maxRTO
		}
	}
	return r
}

// The sender's two deadlines.
const (
	paceDeadline = iota
	rtoDeadline
)

// onDeadline is the timers' handler.
func (s *Sender) onDeadline(i int) {
	if i == paceDeadline {
		s.trySend(s.sched.Now())
	} else {
		s.onTimeout(s.sched.Now())
	}
}

// resetRTO re-arms the retransmission timer one RTO from now, or
// disarms it when nothing is outstanding.
func (s *Sender) resetRTO() {
	if s.Outstanding() <= 0 {
		s.timers.Disarm(rtoDeadline)
		return
	}
	s.timers.Arm(rtoDeadline, s.sched.Now().Add(s.rto()))
}

// onTimeout handles RTO expiry: collapse the window, treat everything
// outstanding as lost (go-back-N; the scoreboard is rebuilt from
// subsequent ACKs), and retransmit the first hole.
func (s *Sender) onTimeout(now units.Time) {
	if s.Outstanding() <= 0 {
		return
	}
	s.stats.Timeouts++
	s.rtoBackoff++
	s.inRecovery = false
	s.alg.OnTimeout(now)

	s.sb.reset(s.sndUna)
	s.lostQueue = s.lostQueue[:0]
	s.lostHead = 0
	s.highestSacked = -1
	s.lossScan = s.nextSeq
	// Everything beyond sndUna is presumed lost until re-acknowledged.
	for seq := s.sndUna + 1; seq < s.nextSeq; seq++ {
		s.sb.or(seq, sbLost)
		s.lostQueue = append(s.lostQueue, seq)
	}
	s.excluded = s.Outstanding() - 1 // all but the head, resent below

	s.sendPacket(now, s.sndUna, true)
	s.resetRTO()
	s.trySend(now)
}

// sendPacket emits one packet (new or retransmission).
func (s *Sender) sendPacket(now units.Time, seq int64, isRetx bool) {
	p := s.pool.Data(s.flow, seq, now)
	p.Retransmit = isRetx
	p.ECT = s.ecn
	s.stats.SentPackets++
	if isRetx {
		s.stats.Retransmits++
	}
	s.egress.Deliver(now, p)
	if pace := s.alg.PacingInterval(); pace > 0 {
		s.nextSendTime = now.Add(pace)
	}
}

// trySend transmits retransmissions and new packets while the pipe,
// window, and pacing allow. Nothing it does changes the window, so it
// reads it once.
func (s *Sender) trySend(now units.Time) {
	window := s.window()
	for {
		// Drop stale entries from the head of the loss queue.
		for s.lostHead < len(s.lostQueue) {
			seq := s.lostQueue[s.lostHead]
			fl := s.sb.get(seq)
			if seq < s.sndUna || fl&(sbSacked|sbRetx) != 0 || fl&sbLost == 0 {
				s.popLost()
				continue
			}
			break
		}
		wantRetx := s.lostHead < len(s.lostQueue)
		wantNew := s.on
		if !wantRetx && !wantNew {
			return
		}
		if s.pipe() >= window {
			return
		}
		if now < s.nextSendTime {
			s.schedulePace(now)
			return
		}
		if wantRetx {
			seq := s.lostQueue[s.lostHead]
			s.popLost()
			s.sb.or(seq, sbRetx)
			s.excluded-- // back in the pipe
			s.sendPacket(now, seq, true)
		} else {
			hadOutstanding := s.Outstanding() > 0
			s.sendPacket(now, s.nextSeq, false)
			s.nextSeq++
			if !hadOutstanding {
				s.resetRTO()
			}
		}
	}
}

// popLost consumes the head of the loss queue, recycling the backing
// array once the queue drains.
func (s *Sender) popLost() {
	s.lostHead++
	if s.lostHead == len(s.lostQueue) {
		s.lostQueue = s.lostQueue[:0]
		s.lostHead = 0
	}
}

// schedulePace arms the pace deadline for nextSendTime unless it is
// armed for that time or earlier already.
func (s *Sender) schedulePace(now units.Time) {
	if s.timers.Armed(paceDeadline) && s.timers.When(paceDeadline) <= s.nextSendTime {
		return
	}
	s.timers.Arm(paceDeadline, s.nextSendTime)
}
