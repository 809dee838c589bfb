package netsim

import (
	"learnability/internal/packet"
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
}

// New returns an empty network on a fresh scheduler.
func New() *Network {
	return &Network{Sched: sim.New(), Pool: &packet.Pool{}}
}

// AddFlow registers a flow, wiring the network's packet pool into its
// endpoints so topology builders cannot silently leave a component
// allocating per packet.
func (n *Network) AddFlow(f *Flow) {
	if f.Sender != nil {
		f.Sender.SetPool(n.Pool)
	}
	if f.Receiver != nil {
		f.Receiver.SetPool(n.Pool)
	}
	n.Flows = append(n.Flows, f)
}

// AddLink registers a link, wiring in the network's packet pool (and,
// through the link, its queueing discipline).
func (n *Network) AddLink(l *Link) {
	l.SetPool(n.Pool)
	n.Links = append(n.Links, l)
}

// Reset rewinds the network's shared machinery — the scheduler (to
// time zero, arena kept) and the packet pool's counters (free list
// kept) — so the network can host another simulation. Links and flow
// endpoints are reinitialized separately by topo.World.Rebuild, which
// owns the per-run topology.
func (n *Network) Reset() {
	n.Sched.Reset()
	n.Pool.Reset()
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
// flows' stats in flow order.
func (n *Network) Run(duration units.Duration) []*FlowStats {
	for _, f := range n.Flows {
		f := f
		f.Workload.Start(n.Sched, func(on bool) {
			f.Sender.SetOn(n.Sched.Now(), on)
		})
	}
	end := units.Time(0).Add(duration)
	n.Sched.Run(end)
	out := make([]*FlowStats, len(n.Flows))
	for i, f := range n.Flows {
		f.Stats.Finalize(end)
		out[i] = f.Stats
	}
	return out
}
