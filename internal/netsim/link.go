// Package netsim implements the packet-level network simulation on top
// of the sim scheduler: links with serialization and propagation delay,
// a reliable window-based transport with pacing (the substrate the
// paper's ns-2 experiments rely on), receivers that generate per-packet
// cumulative ACKs, and the per-flow bookkeeping the paper's metrics are
// computed from.
package netsim

import (
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/sim"
	"learnability/internal/units"
)

// Deliverer consumes packets at the downstream end of a hop. Links are
// Deliverers (packets entering their queue), as are Receivers.
type Deliverer interface {
	// Deliver hands p to this hop at simulated time now. The callee
	// takes ownership of the packet.
	Deliver(now units.Time, p *packet.Packet)
}

// hop is one value on a delay lane: the step of a packet's journey
// that is due when the lane fires it. The network's stages differ only
// in what they do at the far end of their delay, so one value type
// carries all three and any stages of equal delay can share a lane.
type hop struct {
	link *Link          // p has crossed link; or, with p nil, link has serialized its txPkt
	rcv  *Receiver      // p is an ACK at the far end of rcv's reverse path
	p    *packet.Packet // nil for a serializer's hop, which holds its packet in the link
}

// fireHop is the handler of every lane: it hands a due hop to its stage.
func fireHop(h hop) {
	switch {
	case h.p == nil:
		h.link.txDone()
	case h.rcv == nil:
		h.link.arrive(h.p)
	default:
		h.rcv.deliverAck(h.p)
	}
}

// laneSet is a set of delay lanes carrying hops (see sim.Lanes). A
// Network has one, shared by all its links and receivers, which is what
// keeps the scheduler's queue as deep as the network has distinct delays
// rather than stages.
type (
	laneSet = sim.Lanes[hop]
	lane    = sim.Lane[hop]
)

func newLaneSet(sched *sim.Scheduler) *laneSet { return sim.NewLanes(sched, fireHop) }

// hopPool is the packet pool as the sink of a lane set's Reset.
type hopPool packet.Pool

// Put recycles the packet of a hop that never fired (a serializer's hop
// carries none; its link recycles txPkt itself).
func (hp *hopPool) Put(h hop) { (*packet.Pool)(hp).Put(h.p) }

// PathSelector picks among a flow's candidate next hops at packet time.
// It applies only to (link, flow) pairs whose compiled fanout exceeds
// one; ECMP never reaches packet time (the topology compiler resolves
// its flow-hash to a single next hop per link, so ECMP forwarding IS
// the single-path fast path).
type PathSelector uint8

// Per-packet selection disciplines.
const (
	// SelectSpray round-robins a flow's candidates at each link
	// (per-packet load balancing; induces reordering by design).
	SelectSpray PathSelector = iota
	// SelectAdaptive sends each packet to the candidate whose ingress
	// queue currently holds the fewest packets (first candidate wins
	// ties, so selection is deterministic).
	SelectAdaptive
)

// NextHops is one flow's candidate next-hop set at one link, compiled
// by the topology builder for (link, flow) pairs with fanout > 1.
type NextHops struct {
	// Cands are the candidate next hops, in deterministic path order.
	Cands []Deliverer

	// links is parallel to Cands: the candidate itself when it is a
	// link, nil for terminal hops (receivers), which the adaptive
	// selector treats as always-empty. SetMultiRoute resolves it.
	// Occupancy is read through the candidate link, not through a
	// queue captured at compile time, so a table outlives the queues
	// of the run it was compiled for.
	links []*Link
}

// queueLen reports candidate i's ingress-queue occupancy in packets.
func (h *NextHops) queueLen(i int) int {
	if l := h.links[i]; l != nil {
		return l.q.Len()
	}
	return 0
}

// Link is a unidirectional link: a queueing discipline feeding a
// serializer of fixed rate, followed by a fixed propagation delay.
// Packets leaving the link are handed to the next hop in the link's
// flow-indexed route table (the next link on the flow's path, or the
// flow's receiver at the last hop).
//
// The transmit path is allocation-free and schedules through delay lanes
// only: at kick the link pushes itself onto the lane of its
// serialization time, at txDone the packet onto the lane of its
// propagation delay (packets arrive in serialization order because that
// delay is constant). Both lanes are shared with every other stage of
// the same delay on the link's lane set, so a link adds no scheduler
// entry of its own however many packets are in flight on it. The lane
// pointers are resolved by Reinit and SetRate, never per packet.
type Link struct {
	sched *sim.Scheduler
	rate  units.Rate
	prop  units.Duration
	q     queue.Discipline
	next  []Deliverer // flow-indexed next hop; nil entry = consult multi
	busy  bool

	// multi holds flow-indexed candidate sets for (link, flow) pairs
	// whose compiled fanout exceeds one; next[f] is nil exactly when
	// multi[f].Cands is non-empty. Single-path flows (including all
	// ECMP flows, whose hash is resolved at compile time) never touch
	// it, so the classic forwarding path is unchanged.
	multi []NextHops
	sel   PathSelector
	rr    []uint32 // per-flow spray round-robin cursors

	// in counts packets accepted by Deliver (before any queue drop);
	// out counts packets that exited the far end. The multipath
	// property tests assert in == out + drops + InFlight per link.
	in, out int64

	// tallyIn/tallyOut, when non-nil, count per-flow ingress/egress
	// packets (flow-indexed). Installed by SetFlowTally for per-flow
	// conservation tests; nil in normal runs so the hot path pays one
	// predictable branch.
	tallyIn, tallyOut []int64

	pool *packet.Pool // optional; recycles rejected arrivals, and the serializer's packet at Reinit

	// trace, when non-nil, receives packet lifecycle events (see
	// SetTrace). Nil in normal runs, so the hot path pays the same
	// single predictable branch as tallyIn. traceID is the link
	// identifier stamped into events.
	trace   PacketTracer
	traceID int

	txPkt *packet.Packet // packet currently being serialized

	// lanes is the set the link's lanes are resolved in: txLane is that
	// of a data packet's serialization time at the current rate (any
	// other size looks its lane up), propLane that of prop. inProp
	// counts the link's own packets in propagation, which a shared lane
	// cannot tell apart from its other values.
	lanes    *laneSet
	txLane   *lane
	propLane *lane
	inProp   int
}

// Reinit sets a link's rate, propagation delay, and queueing discipline,
// and rewinds everything else a run changes. Network.NewLink ends with
// it, and a recycled world calls it on a link of a finished simulation,
// keeping the scheduler, pool and lane set bindings. The lanes are
// resolved again: the set has been Reset (Network.Reset does it,
// returning every packet the finished run left in propagation to the
// pool) and may have forgotten the link's delays. The packet being
// serialized is returned to the pool here, and the previous queue, if
// any, is Reset (the packets it held are values there, and go with it),
// so q may be that same queue, reused as new. The next-hop tables stay
// as installed (they name links and receivers, which a recycled world
// keeps), with the spray cursors and packet counts rewound; a caller
// whose paths or policy changed re-installs them with SetRoute or
// SetMultiRoute. Per-flow tallies stay installed, zeroed.
func (l *Link) Reinit(rate units.Rate, prop units.Duration, q queue.Discipline) {
	if rate <= 0 {
		panic("netsim: link with non-positive rate")
	}
	if prop < 0 {
		panic("netsim: link with negative propagation delay")
	}
	if q == nil {
		panic("netsim: link with nil queue")
	}
	if l.txPkt != nil {
		l.pool.Put(l.txPkt)
		l.txPkt = nil
	}
	if l.q != nil {
		l.q.Reset()
	}
	l.busy = false
	l.inProp = 0
	l.rate = rate
	l.prop = prop
	l.q = q
	l.txLane = l.lanes.Lane(rate.TransmissionTime(packet.MTU))
	l.propLane = l.lanes.Lane(prop)
	clear(l.rr)
	l.in, l.out = 0, 0
	clear(l.tallyIn)
	clear(l.tallyOut)
	l.trace = nil
	if pa, ok := q.(queue.PoolAware); ok {
		pa.SetPool(l.pool)
	}
}

// SetRoute installs the flow-indexed next-hop table: next[flow] is the
// Deliverer packets of that flow are handed to when they exit the link.
// Topology builders (package topo) compile a flow's multi-hop path into
// one table entry per link, so per-packet forwarding is a single slice
// load — no closure, no allocation. Any previously installed multipath
// tables are cleared.
func (l *Link) SetRoute(next []Deliverer) {
	l.next = next
	l.multi = nil
	l.in, l.out = 0, 0
}

// SetMultiRoute installs a route table with per-packet path diversity:
// next[f] is the single next hop for flows with compiled fanout 1 and
// nil for flows with several candidates, whose sets live in multi[f].
// sel picks among candidates at packet time (spray round-robin or
// adaptive least-queue); the spray cursors are (re)zeroed here so
// replayed runs are deterministic. Both tables are flow-indexed and
// must have equal length; the link owns them from here on.
func (l *Link) SetMultiRoute(next []Deliverer, multi []NextHops, sel PathSelector) {
	if len(multi) != len(next) {
		panic("netsim: SetMultiRoute with mismatched table lengths")
	}
	for f := range multi {
		h := &multi[f]
		h.links = make([]*Link, len(h.Cands))
		for i, c := range h.Cands {
			h.links[i], _ = c.(*Link)
		}
	}
	l.next = next
	l.multi = multi
	l.sel = sel
	if len(l.rr) < len(next) {
		l.rr = make([]uint32, len(next))
	} else {
		l.rr = l.rr[:len(next)]
		clear(l.rr)
	}
	l.in, l.out = 0, 0
}

// SetFlowTally installs flow-indexed per-flow packet counters (ingress
// and egress), used by the multipath conservation property tests. Both
// slices may be nil to disable tallying. The caller owns the slices and
// reads the counts back directly.
func (l *Link) SetFlowTally(in, out []int64) {
	l.tallyIn, l.tallyOut = in, out
}

// Counts reports the link's lifetime ingress and egress packet counts
// since the route table was last installed: in counts every packet
// handed to Deliver (including ones the queue then dropped), out counts
// packets that exited the far end of the propagation delay. Together
// with the queue's drop statistics and InFlight they satisfy
// in == out + drops + InFlight at any instant.
func (l *Link) Counts() (in, out int64) { return l.in, l.out }

// NextHop reports the single compiled next hop for flow f, or nil when
// the flow has per-packet fanout at this link (or no route). Property
// tests use it to walk ECMP-compiled paths.
func (l *Link) NextHop(f int) Deliverer {
	if f < 0 || f >= len(l.next) {
		return nil
	}
	return l.next[f]
}

// Fanout reports the number of candidate next hops flow f has at this
// link: 1 for compiled single-path entries, the candidate-set size for
// multipath entries, 0 when the flow has no route here.
func (l *Link) Fanout(f int) int {
	if f < 0 || f >= len(l.next) {
		return 0
	}
	if l.next[f] != nil {
		return 1
	}
	if l.multi != nil {
		return len(l.multi[f].Cands)
	}
	return 0
}

// Queue exposes the link's queueing discipline (for sampling occupancy
// and reading drop statistics).
func (l *Link) Queue() queue.Discipline { return l.q }

// Rate reports the link's rate.
func (l *Link) Rate() units.Rate { return l.rate }

// SetRate changes the link's rate mid-run (variable-rate links: on/off
// and Markov-modulated wireless-like channels). The new rate applies
// from the next packet serialization; a transmission already in flight
// completes at the old rate, mirroring a real NIC finishing the frame
// it has started: it stays on the old rate's lane while the link moves
// to the new rate's. It allocates nothing once the link's set has a
// lane for the rate, and panics on a non-positive rate. Reinit
// overwrites it for the next run.
func (l *Link) SetRate(rate units.Rate) {
	if rate <= 0 {
		panic("netsim: SetRate with non-positive rate")
	}
	l.rate = rate
	l.txLane = l.lanes.Lane(rate.TransmissionTime(packet.MTU))
}

// Prop reports the link's one-way propagation delay.
func (l *Link) Prop() units.Duration { return l.prop }

// InFlight reports the number of packets currently inside the link:
// queued at the gateway, being serialized, or in propagation. The
// conservation property tests use it to account for packets still in
// the network when a run ends.
func (l *Link) InFlight() int {
	n := l.q.Len() + l.inProp
	if l.busy {
		n++
	}
	return n
}

// laneFor reports the lane of a packet's serialization time.
func (l *Link) laneFor(size int) *lane {
	if size == packet.MTU {
		return l.txLane
	}
	return l.lanes.Lane(l.rate.TransmissionTime(size))
}

// Deliver implements Deliverer: a packet arrives at the link's ingress
// queue, which copies and recycles it if it accepts it. Packets the
// queue rejects are returned to the pool (after the queue's drop
// accounting and observer have run). A packet that finds the link idle
// and the queue empty passes straight through the queue
// (queue.Discipline.Pass) to the serializer, with the accounting and
// observer events of an enqueue and a dequeue and neither copy.
func (l *Link) Deliver(now units.Time, p *packet.Packet) {
	l.in++
	if l.tallyIn != nil {
		l.tallyIn[p.Flow]++
	}
	if !l.busy && l.q.Len() == 0 {
		if l.q.Pass(now, p) {
			l.transmit(now, p)
		} else {
			l.pool.Put(p)
		}
		return
	}
	if !l.q.Enqueue(now, p) {
		l.pool.Put(p)
	}
	l.kick(now)
}

// kick starts serializing the next queued packet if the link is idle.
func (l *Link) kick(now units.Time) {
	if l.busy {
		return
	}
	if p := l.q.Dequeue(now); p != nil {
		l.transmit(now, p)
	}
}

// transmit starts serializing p, which has left the queue.
func (l *Link) transmit(now units.Time, p *packet.Packet) {
	if l.trace != nil {
		l.emit(TraceDequeue, now, p)
	}
	l.busy = true
	l.txPkt = p
	l.laneFor(p.Size).Push(hop{link: l})
}

// txDone is the serializer's hop: the packet enters propagation (in
// parallel with the next serialization) and the link kicks the queue
// again.
func (l *Link) txDone() {
	p := l.txPkt
	l.txPkt = nil
	l.busy = false
	l.inProp++
	l.propLane.Push(hop{link: l, p: p})
	l.kick(l.sched.Now())
}

// arrive is the propagation hop: p has reached the far end. Single-path
// entries (the common case, and every entry in classic topologies)
// dispatch through one slice load; nil entries fall through to the
// per-packet path selector.
func (l *Link) arrive(p *packet.Packet) {
	l.inProp--
	l.out++
	if l.tallyOut != nil {
		l.tallyOut[p.Flow]++
	}
	if d := l.next[p.Flow]; d != nil {
		d.Deliver(l.sched.Now(), p)
		return
	}
	l.forward(p)
}

// forward picks among a flow's candidate next hops at packet time —
// the multipath slow(er) path, still allocation-free. Reached only for
// (link, flow) pairs the topology compiler left with fanout > 1, i.e.
// SPRAY and ADAPTIVE policies; ECMP is resolved to single next hops at
// compile time.
func (l *Link) forward(p *packet.Packet) {
	h := &l.multi[p.Flow]
	i := 0
	switch l.sel {
	case SelectSpray:
		c := l.rr[p.Flow]
		l.rr[p.Flow] = c + 1
		i = int(c % uint32(len(h.Cands)))
	case SelectAdaptive:
		best := h.queueLen(0)
		for j := 1; j < len(h.Cands); j++ {
			if n := h.queueLen(j); n < best {
				best, i = n, j
			}
		}
	}
	h.Cands[i].Deliver(l.sched.Now(), p)
}
