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

	// onOff is the entry Workload arms, the flow's for its whole life:
	// AddFlow makes it, and Run starts it again for every run.
	onOff *workload.Entry
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

// NewLink creates a link on the network's pool and lanes, set up by
// Link.Reinit, and registers it. The route must be set with SetRoute
// before any packet exits the link.
func (n *Network) NewLink(rate units.Rate, prop units.Duration, q queue.Discipline) *Link {
	l := &Link{sched: n.Sched, pool: n.Pool, lanes: n.lanes}
	l.Reinit(rate, prop, q)
	n.Links = append(n.Links, l)
	return l
}

// NewReceiver creates a receiver on the network's pool and lanes, set up
// by Receiver.Reinit, to be registered as part of its flow with AddFlow.
func (n *Network) NewReceiver(flow int, ackDelay units.Duration, stats *FlowStats) *Receiver {
	r := &Receiver{sched: n.Sched, flow: flow, stats: stats, pool: n.Pool, lanes: n.lanes, ooo: newRingScoreboard()}
	r.Reinit(ackDelay)
	return r
}

// AddFlow registers a flow, wiring the network's packet pool into its
// sender so topology builders cannot silently leave it allocating per
// packet, and giving the flow the on/off entry its workload arms.
func (n *Network) AddFlow(f *Flow) {
	if f.Sender != nil {
		f.Sender.SetPool(n.Pool)
		snd := f.Sender
		f.onOff = workload.NewEntry(n.Sched, func(on bool) { snd.SetOn(n.Sched.Now(), on) })
	}
	n.Flows = append(n.Flows, f)
}

// Reset rewinds the network's shared machinery so the network can host
// another simulation: the scheduler (to time zero, arena kept), the
// packet pool's counters (free list kept), and the lanes, which hand
// every packet the finished run left in propagation or on a reverse
// path back to the pool and forget their delays (storage kept), so a
// world recycled at another link speed holds only the new run's lanes.
// Each flow's on/off entry drops the transitions the finished run did
// not reach when Run starts it again.
// Links and flow endpoints are reinitialized separately by
// topo.World.Rebuild, which owns the per-run topology; until then their
// lane pointers are stale.
func (n *Network) Reset() {
	n.Sched.Reset()
	n.Pool.Reset()
	n.lanes.Reset((*hopPool)(n.Pool))
}

// Packets reports how many pool packets the network holds: the values
// on its delay lanes — packets being serialized, in propagation and, as
// ACKs, on reverse paths. A serializing packet stays in its link, but
// the link's hop on the serialization lane stands for it. Packets queued
// at gateways are values in their queues, not pool packets, and do not
// count. Between events, these and the packets on the pool's free list
// are every packet the pool has made, which is what the scenario
// package's books check holds each run to under go test.
func (n *Network) Packets() int { return n.lanes.InFlight() }

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

// Run starts every flow's workload on its on/off entry, executes the
// simulation for the given duration, and finalizes per-flow statistics.
// It returns the flows' stats in flow order; the slice is the network's
// and is reused by its next Run (the stats themselves always were).
func (n *Network) Run(duration units.Duration) []*FlowStats {
	for _, f := range n.Flows {
		f.onOff.Start(f.Workload)
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
