package scenario

import (
	"testing"

	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/rng"
	"learnability/internal/units"
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
				nw, _ := MustBuild(unpooled)
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
