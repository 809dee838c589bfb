package topo

import (
	"math"
	"testing"

	"learnability/internal/cc"
	"learnability/internal/netsim"
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// fixedCC is a constant-window stub.
type fixedCC struct{ w float64 }

func (f *fixedCC) Reset(units.Time)               {}
func (f *fixedCC) OnACK(units.Time, cc.Feedback)  {}
func (f *fixedCC) OnLoss(units.Time)              {}
func (f *fixedCC) OnTimeout(units.Time)           {}
func (f *fixedCC) Window() float64                { return f.w }
func (f *fixedCC) PacingInterval() units.Duration { return 0 }

func specs(n int, w float64) []FlowSpec {
	out := make([]FlowSpec, n)
	for i := range out {
		out[i] = FlowSpec{Alg: &fixedCC{w: w}, Workload: workload.AlwaysOn{}}
	}
	return out
}

func mustBuild(t *testing.T) func(*netsim.Network, error) *netsim.Network {
	return func(nw *netsim.Network, err error) *netsim.Network {
		t.Helper()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return nw
	}
}

func TestDumbbellMinRTT(t *testing.T) {
	nw := mustBuild(t)(Dumbbell(100*units.Mbps, 150*units.Millisecond, queue.NewInfinite(), specs(1, 1)))
	sts := nw.Run(5 * units.Second)
	// Window 1: delay is one-way propagation (75 ms) plus negligible
	// serialization.
	if d := sts[0].AvgDelay(); d < 75*units.Millisecond || d > 77*units.Millisecond {
		t.Fatalf("one-way delay = %v, want ~75ms", d)
	}
	if sts[0].MinRTT != 150*units.Millisecond {
		t.Fatalf("MinRTT = %v", sts[0].MinRTT)
	}
}

func TestDumbbellSharesBottleneck(t *testing.T) {
	// Window 100 per flow vs an 84-packet BDP: the link saturates
	// without the giant synchronized bursts that would trick the RTO
	// (four flows dumping 400 packets at t=0 serializes the FIFO into
	// per-flow blocks and starves each flow of ACKs for seconds).
	nw := mustBuild(t)(Dumbbell(10*units.Mbps, 100*units.Millisecond, queue.NewInfinite(), specs(4, 100)))
	sts := nw.Run(20 * units.Second)
	total := 0.0
	for _, st := range sts {
		total += float64(st.Throughput())
	}
	if math.Abs(total-10e6)/10e6 > 0.05 {
		t.Fatalf("combined throughput = %.0f, want ~10e6", total)
	}
}

func TestDumbbellValidation(t *testing.T) {
	for name, fn := range map[string]func() (*netsim.Network, error){
		"no flows": func() (*netsim.Network, error) {
			return Dumbbell(units.Mbps, units.Millisecond, queue.NewInfinite(), nil)
		},
		"zero minRTT": func() (*netsim.Network, error) { return Dumbbell(units.Mbps, 0, queue.NewInfinite(), specs(1, 1)) },
		"nil alg": func() (*netsim.Network, error) {
			return Dumbbell(units.Mbps, units.Millisecond, queue.NewInfinite(), []FlowSpec{{Workload: workload.AlwaysOn{}}})
		},
		"nil workload": func() (*netsim.Network, error) {
			return Dumbbell(units.Mbps, units.Millisecond, queue.NewInfinite(), []FlowSpec{{Alg: &fixedCC{w: 1}}})
		},
	} {
		if _, err := fn(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParkingLotRoutes(t *testing.T) {
	q1, q2 := queue.NewInfinite(), queue.NewInfinite()
	nw := mustBuild(t)(ParkingLot(10*units.Mbps, 10*units.Mbps, 75*units.Millisecond, q1, q2, specs(3, 2)))
	sts := nw.Run(10 * units.Second)
	// Flow 0 crosses both hops: one-way prop 150 ms; flows 1 and 2 one
	// hop: 75 ms.
	if d := sts[0].AvgDelay(); d < 150*units.Millisecond || d > 155*units.Millisecond {
		t.Fatalf("flow 0 delay = %v, want ~150ms", d)
	}
	for _, i := range []int{1, 2} {
		if d := sts[i].AvgDelay(); d < 75*units.Millisecond || d > 80*units.Millisecond {
			t.Fatalf("flow %d delay = %v, want ~75ms", i, d)
		}
	}
	if sts[0].MinRTT != 300*units.Millisecond || sts[1].MinRTT != 150*units.Millisecond {
		t.Fatalf("minRTTs = %v, %v", sts[0].MinRTT, sts[1].MinRTT)
	}
	// All flows moved traffic through the right places.
	for i, st := range sts {
		if st.DeliveredBytes == 0 {
			t.Fatalf("flow %d delivered nothing", i)
		}
	}
}

func TestParkingLotBottleneckContention(t *testing.T) {
	// Saturating windows: each link carries two flows; flow 0 shares
	// both. With equal links and FIFO service, flow 0 gets less than
	// the single-hop flows (it pays at both bottlenecks).
	q1, q2 := queue.NewDropTail(50*1500), queue.NewDropTail(50*1500)
	nw := mustBuild(t)(ParkingLot(10*units.Mbps, 10*units.Mbps, 75*units.Millisecond, q1, q2, specs(3, 100)))
	sts := nw.Run(30 * units.Second)
	t0 := float64(sts[0].Throughput())
	t1 := float64(sts[1].Throughput())
	t2 := float64(sts[2].Throughput())
	if t0 >= t1 || t0 >= t2 {
		t.Fatalf("long flow (%.0f) should get less than short flows (%.0f, %.0f)", t0, t1, t2)
	}
	// Each link carries most of its capacity as goodput (fixed windows
	// never back off, so sustained loss costs some efficiency).
	if (t0+t1) < 0.7*10e6 || (t0+t2) < 0.7*10e6 {
		t.Fatalf("links badly underutilized: %v %v", t0+t1, t0+t2)
	}
}

func TestParkingLotValidation(t *testing.T) {
	q := queue.NewInfinite()
	for name, fn := range map[string]func() (*netsim.Network, error){
		"two flows": func() (*netsim.Network, error) {
			return ParkingLot(units.Mbps, units.Mbps, 75*units.Millisecond, q, q, specs(2, 1))
		},
		"zero hop prop": func() (*netsim.Network, error) {
			return ParkingLot(units.Mbps, units.Mbps, 0, q, q, specs(3, 1))
		},
	} {
		if _, err := fn(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestRebuiltWorldHoldsOnlyTheRunsLanes recycles one world a hundred
// times, each time at a link speed no run before it had (the trainer
// draws one per slot): the network's lane set must hold the current
// run's distinct delays and no other run's, every packet the last run
// left in flight on those shared lanes must be back in the pool, and
// once two rebuilds have grown the world the lanes' storage is reused,
// so a run and its rebuild allocate nothing for them.
func TestRebuiltWorldHoldsOnlyTheRunsLanes(t *testing.T) {
	// Serialization, hop (and the cross flows' reverse path), and the
	// long flow's reverse path.
	const delays, rebuilds = 3, 100
	graphs := make([]*Graph, rebuilds+1)
	for i := range graphs {
		rate := 10*units.Mbps + units.Rate(i)*37*units.Kbps
		graphs[i] = ParkingLotGraph([]units.Rate{rate, rate, rate}, 5*units.Millisecond, 1, true)
	}
	queues := []queue.Discipline{queue.NewDropTail(30000), queue.NewDropTail(30000), queue.NewDropTail(30000)}
	flows := specs(4, 30)
	w, err := NewWorld(graphs[0], queues, flows)
	if err != nil {
		t.Fatal(err)
	}
	nw := w.Net
	var carved int64 // packets the pool has ever made
	held := make([]*packet.Packet, 0, 1024)
	i := 0
	recycle := func() {
		i++
		for _, fl := range nw.Flows { // Network.Run, for always-on flows, without its closures
			fl.Sender.SetOn(0, true)
		}
		nw.Sched.Run(units.Time(100 * units.Millisecond))
		inFlight := 0
		for _, l := range nw.Links {
			inFlight += l.InFlight()
		}
		if inFlight == 0 || nw.Lanes() != delays {
			t.Fatalf("run %d: %d packets in flight on %d lanes, want some on %d", i, inFlight, nw.Lanes(), delays)
		}
		carved += nw.Pool.Gets - nw.Pool.Reuses

		if err := w.Rebuild(graphs[i], queues, flows); err != nil {
			t.Fatal(err)
		}
		if nw.Lanes() != delays {
			t.Fatalf("rebuild %d: %d lanes for %d distinct delays; the set kept a finished run's", i, nw.Lanes(), delays)
		}
		for k := int64(0); k < carved; k++ {
			held = append(held, nw.Pool.Get())
		}
		if nw.Pool.Reuses != carved {
			t.Fatalf("rebuild %d: the pool holds %d of the %d packets made so far", i, nw.Pool.Reuses, carved)
		}
		for _, p := range held {
			nw.Pool.Put(p)
		}
		held = held[:0]
		nw.Pool.Reset()
	}
	recycle()
	recycle()
	// None: the routes are the ones the world last compiled and
	// validated, so Rebuild checks only the edges and delays.
	if n := testing.AllocsPerRun(rebuilds-3, recycle); n > 0 {
		t.Fatalf("a run and a rebuild at a new link speed make %v allocations, want none", n)
	}
	if i != rebuilds {
		t.Fatalf("%d rebuilds, want %d", i, rebuilds)
	}
}
