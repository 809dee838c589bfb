package scenario

import (
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/rng"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// pooledVariants enumerates scenario shapes that exercise every packet
// end-of-life path: in-order delivery, drop-tail overflow (tight
// buffer), AQM dequeue drops (sfqCoDel), and the RemyCC per-ACK path.
func pooledVariants() map[string]func(seed uint64) Spec {
	return map[string]func(seed uint64) Spec{
		"cubic-droptail": func(seed uint64) Spec {
			s := baseSpec()
			s.Seed = rng.New(seed)
			s.Senders = twoCubic()
			return s
		},
		"tight-buffer-losses": func(seed uint64) Spec {
			s := baseSpec()
			s.Seed = rng.New(seed)
			s.BufferBDP = 0.25 // force drop-tail overflow
			s.Senders = []Sender{
				{Alg: cubic.New(), Delta: 1},
				{Alg: newreno.New(), Delta: 1},
			}
			return s
		},
		"sfqcodel-aqm-drops": func(seed uint64) Spec {
			s := baseSpec()
			s.Seed = rng.New(seed)
			s.Buffering = SfqCoDel
			s.Senders = twoCubic()
			return s
		},
		"remycc-dumbbell": func(seed uint64) Spec {
			s := baseSpec()
			s.Seed = rng.New(seed)
			s.Senders = []Sender{
				{Alg: remycc.New(remycc.NewTree()), Delta: 1},
				{Alg: remycc.New(remycc.NewTree()), Delta: 1},
			}
			return s
		},
		"parking-lot": func(seed uint64) Spec {
			s := baseSpec()
			s.Seed = rng.New(seed)
			s.Topology = ParkingLot
			s.LinkSpeeds = []units.Rate{0, 8 * units.Mbps}
			s.Senders = []Sender{
				{Alg: cubic.New(), Delta: 1},
				{Alg: cubic.New(), Delta: 1},
				{Alg: cubic.New(), Delta: 1},
			}
			return s
		},
	}
}

// TestPooledMatchesUnpooled proves the packet free list is behaviorally
// invisible: for identical seeds, a run with packet recycling produces
// flow results bit-identical to a run that allocates every packet
// afresh (the pre-pool simulator's behavior) — a built network whose
// pool is disabled before Finish.
func TestPooledMatchesUnpooled(t *testing.T) {
	for name, mk := range pooledVariants() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				pooled := mk(seed)
				res1 := MustRun(pooled)

				unpooled := mk(seed)
				nw, _ := mustBuild(unpooled)
				nw.Pool.Disable()
				res2 := Finish(unpooled, nw)

				if len(res1) != len(res2) {
					t.Fatalf("seed %d: result counts differ: %d vs %d", seed, len(res1), len(res2))
				}
				for i := range res1 {
					if res1[i] != res2[i] {
						t.Fatalf("seed %d flow %d: pooled %+v != unpooled %+v",
							seed, i, res1[i], res2[i])
					}
				}
			}
		})
	}
	t.Run("cut-off-mid-flight", cutOffMidFlight)
}

// cutOffMidFlight is the run boundary a delay line must survive: a run
// ends with packets in propagation and ACKs on the reverse path (their
// pipes busy, each with an entry in the scheduler), and the next run on
// the recycled world has a different propagation delay. Reinit must
// drain the pipes and forget their armed entries — the scheduler's
// Reset has already released those slots to the new run — or the
// recycled run delivers the old run's packets, or cancels a new event
// through a stale handle. The recycled run must equal Build + Finish.
func cutOffMidFlight(t *testing.T) {
	cut := baseSpec()
	cut.LinkSpeed = 32 * units.Mbps
	cut.MinRTT = 150 * units.Millisecond
	// Slow start is still opening (no loss yet), and the cut falls
	// inside both flows' ACK bursts.
	cut.Duration = 1230 * units.Millisecond
	cut.Senders = []Sender{
		{Alg: cubic.New(), Delta: 1, Workload: workload.AlwaysOn{}},
		{Alg: cubic.New(), Delta: 1, Workload: workload.AlwaysOn{}},
	}
	MustRun(cut)
	w := idleWorld(t, cut)
	l := w.Net.Links[0]
	if inProp := l.InFlight() - l.Queue().Len(); inProp < 2 {
		t.Fatalf("run ended with %d packets serializing or in propagation; want several", inProp)
	}
	for i, f := range w.Net.Flows {
		if f.Stats.Retransmits != 0 {
			t.Fatalf("flow %d retransmitted; the ACK count below assumes it did not", i)
		}
		acked := f.Stats.SentPackets - f.Sender.Outstanding()
		if inAck := f.Receiver.Cum() + 1 - acked; inAck < 2 {
			t.Fatalf("flow %d ended with %d ACKs in flight; want several", i, inAck)
		}
	}

	for seed := uint64(1); seed <= 3; seed++ {
		next := baseSpec() // 100 ms RTT: another propagation and ACK delay
		next.Seed = rng.New(seed)
		next.BufferBDP = 0.25
		got := MustRun(next)
		if idleWorld(t, next) != w {
			t.Fatal("the run did not recycle the cut-off world")
		}
		mustEqual(t, "after cut-off run", got, runFresh(next))
		MustRun(cut) // leave the world busy again for the next seed
	}
}

// TestSeedDeterminismAcrossVariants asserts same-seed replays are
// bit-identical for every variant (the refactored event core must keep
// the simulator's determinism guarantee).
func TestSeedDeterminismAcrossVariants(t *testing.T) {
	for name, mk := range pooledVariants() {
		t.Run(name, func(t *testing.T) {
			a, b := MustRun(mk(7)), MustRun(mk(7))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("replay diverged at flow %d: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}
