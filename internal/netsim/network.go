package netsim

import (
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/sim"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// Flow bundles the endpoints and bookkeeping of one sender-receiver
// pair.
type Flow struct {
	Sender   *Sender         // transport endpoint originating data
	Receiver *Receiver       // terminating endpoint generating ACKs
	Stats    *FlowStats      // per-flow counters, shared by both ends
	Workload workload.Source // on/off process driving the sender
}

// Network is an assembled simulation: a scheduler, links, and flows.
// Topology builders (package topo) construct Networks; Run executes
// them.
type Network struct {
	Sched *sim.Scheduler // the event loop every component runs on
	Links []*Link        // all links, in registration order
	Flows []*Flow        // all flows, in registration (= flow ID) order

	// Pool recycles packets across the network's lifetime. Topology
	// builders wire it into every sender, receiver, and link; the
	// network runs on one goroutine, so the pool is unsynchronized.
	Pool *packet.Pool

	// lanes is the delay-lane set every link and receiver of the
	// network schedules through: stages of equal delay share a lane.
	lanes *laneSet

	// stats is what Run returns, kept for the next run.
	stats []*FlowStats
}

// New returns an empty network on a fresh scheduler.
func New() *Network {
	s := sim.New()
	return &Network{Sched: s, Pool: &packet.Pool{}, lanes: newLaneSet(s)}
}

// Lanes reports how many delay lanes the network holds: the distinct
// delays among its links' serialization times and propagation delays
// and its flows' reverse paths. It bounds the scheduler entries all
// packets in flight occupy between them.
func (n *Network) Lanes() int { return n.lanes.Len() }

// NewLink creates a link on the network's lanes and registers it.
func (n *Network) NewLink(rate units.Rate, prop units.Duration, q queue.Discipline) *Link {
	l := newLink(n.Sched, rate, prop, q)
	n.AddLink(l)
	return l
}

// NewReceiver creates a receiver on the network's lanes, to be
// registered as part of its flow with AddFlow.
func (n *Network) NewReceiver(flow int, ackDelay units.Duration, stats *FlowStats) *Receiver {
	r := newReceiver(n.Sched, flow, ackDelay, stats)
	r.setLanes(n.lanes)
	return r
}

// AddFlow registers a flow, wiring the network's packet pool and lanes
// into its endpoints so topology builders cannot silently leave a
// component allocating per packet or scheduling on its own. The
// receiver must be idle.
func (n *Network) AddFlow(f *Flow) {
	if f.Sender != nil {
		f.Sender.SetPool(n.Pool)
	}
	if f.Receiver != nil {
		f.Receiver.SetPool(n.Pool)
		f.Receiver.setLanes(n.lanes)
	}
	n.Flows = append(n.Flows, f)
}

// AddLink registers a link, which must be idle, wiring in the network's
// packet pool (and, through the link, its queueing discipline) and its
// lanes.
func (n *Network) AddLink(l *Link) {
	l.SetPool(n.Pool)
	l.setLanes(n.lanes)
	n.Links = append(n.Links, l)
}

// Reset rewinds the network's shared machinery so the network can host
// another simulation: the scheduler (to time zero, arena kept), the
// packet pool's counters (free list kept), and the lanes, which hand
// every packet the finished run left in propagation or on a reverse
// path back to the pool and forget their delays (storage kept), so a
// world recycled at another link speed holds only the new run's lanes.
// Links and flow endpoints are reinitialized separately by
// topo.World.Rebuild, which owns the per-run topology; until then their
// lane pointers are stale.
func (n *Network) Reset() {
	n.Sched.Reset()
	n.Pool.Reset()
	n.lanes.Reset((*hopPool)(n.Pool))
}

// Packets reports how many packets the network holds: queued at its
// gateways, being serialized, in propagation and, as ACKs, on reverse
// paths. With the packets on its pool's free list they are every packet
// the pool has made, which is what the scenario package's books check
// holds each run to under go test. A serializing packet stays in its
// link, but the link's hop on the serialization lane stands for it.
func (n *Network) Packets() int {
	held := n.lanes.InFlight()
	for _, l := range n.Links {
		held += l.q.Len()
	}
	return held
}

// Sample schedules fn to run every interval from time 0 until the end
// of the run (used to record queue-occupancy time series).
func (n *Network) Sample(interval units.Duration, fn func(now units.Time)) {
	if interval <= 0 {
		panic("netsim: non-positive sample interval")
	}
	var tick func()
	tick = func() {
		fn(n.Sched.Now())
		n.Sched.After(interval, tick)
	}
	n.Sched.At(0, tick)
}

// Run starts every flow's workload, executes the simulation for the
// given duration, and finalizes per-flow statistics. It returns the
// flows' stats in flow order; the slice is the network's and is reused
// by its next Run (the stats themselves always were).
func (n *Network) Run(duration units.Duration) []*FlowStats {
	for _, f := range n.Flows {
		f.Workload.Start(n.Sched, f.Sender.setOnFn)
	}
	end := units.Time(0).Add(duration)
	n.Sched.Run(end)
	n.stats = n.stats[:0]
	for _, f := range n.Flows {
		f.Stats.Finalize(end)
		n.stats = append(n.stats, f.Stats)
	}
	return n.stats
}
