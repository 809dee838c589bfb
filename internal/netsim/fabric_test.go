package netsim_test

import (
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/netsim"
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/topo"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// TestFatTreeLanesMatchPerPacketScheduling puts the shape delay lanes
// were made for through the per-packet oracle: a k=4 fat tree under
// Spray, built by the topology compiler as the experiments build it —
// one rate and one delay for all 96 links, sixteen flows crossing the
// core, each link spraying over its equal-cost next hops — so that its
// 96 serializers share one lane, every hop another, and equal-time ties
// between links are the norm. Drop-tail buffers small enough to overflow
// and sfqCoDel both run, Cubic beside fixed windows.
func TestFatTreeLanesMatchPerPacketScheduling(t *testing.T) {
	for _, sfq := range []bool{false, true} {
		for seed := uint64(1); seed <= 2; seed++ {
			build := func() *netsim.Network {
				d := units.Millisecond
				ft, err := topo.FatTree(4, 20*units.Mbps, topo.FatTreeDelays{Host: d, Pod: d, Core: d})
				if err != nil {
					t.Fatal(err)
				}
				if err := ft.AddPermutation(); err != nil {
					t.Fatal(err)
				}
				ft.G.Routing = topo.Spray
				queues := make([]queue.Discipline, len(ft.G.Edges))
				for i := range queues {
					if sfq {
						queues[i] = queue.NewSFQCoDel(queue.SFQCoDelBins, 12*packet.MTU)
					} else {
						queues[i] = queue.NewDropTail(6 * packet.MTU)
					}
				}
				flows := make([]topo.FlowSpec, len(ft.G.Routes))
				for f := range flows {
					alg := netsim.FixedWindow(30)
					if f%2 == 0 {
						alg = cubic.New()
					}
					flows[f] = topo.FlowSpec{
						Alg:      alg,
						Workload: &workload.OnOff{MeanOn: units.Second, MeanOff: units.Second / 2, Rng: rng.New(seed).SplitN("wl", f)},
					}
				}
				w, err := topo.NewWorld(&ft.G, queues, flows)
				if err != nil {
					t.Fatal(err)
				}
				return w.Net
			}
			nw, stats := netsim.RunBothLines(t, build)
			var retx, reordered int64
			for _, st := range stats {
				retx += st.Retransmits
				reordered += st.Reordered
			}
			if retx == 0 || reordered == 0 {
				t.Fatalf("sfq=%v seed %d: %d retransmissions, %d reordered arrivals; the fabric was never stressed", sfq, seed, retx, reordered)
			}
			// One serialization time, one hop delay, the reverse path.
			if nw.Lanes() > 3 || len(nw.Links) != 96 {
				t.Fatalf("sfq=%v seed %d: %d lanes for %d links; want three", sfq, seed, nw.Lanes(), len(nw.Links))
			}
		}
	}
}
