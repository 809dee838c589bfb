package remy

// Differential tests for the sharded trainer: the headline guarantee is
// that training over remyshardd workers (one or several lanes, every
// topology and config family, even with workers dying mid-run)
// produces a tree BYTE-EQUAL to the in-process trainer for the same
// Seed and Budget. The workers are loopback TCP servers hosted by this
// test binary (startTCPWorker), so every row crosses a real socket
// without a separate build step.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/scenario"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// diffBudget is the budget every differential test trains under: big
// enough to split whiskers and hill-climb (so the trajectory visits
// every merge path), small enough to run many trainers per test.
func diffBudget() Budget {
	return Budget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2}
}

// trainBytes trains with the given trainer and returns the stable
// binary encoding of the result.
func trainBytes(t *testing.T, tr *Trainer) []byte {
	t.Helper()
	tree := tr.Train(diffBudget())
	data, err := tree.MarshalBinary()
	if err != nil {
		t.Fatalf("encode trained tree: %v", err)
	}
	return data
}

// inProcessBytes is the reference: the plain Workers-only trainer.
func inProcessBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	return trainBytes(t, &Trainer{Cfg: tinyConfig(), Seed: seed, Workers: 4})
}

// requireRemotesBitEqual trains cfg over one and over two loopback
// TCP workers and requires each tree byte-equal to want.
func requireRemotesBitEqual(t *testing.T, cfg Config, seed uint64, want []byte) {
	t.Helper()
	a, _ := startTCPWorker(t, nil)
	b, _ := startTCPWorker(t, nil)
	for _, remotes := range [][]string{{a}, {a, b}} {
		if got := trainBytes(t, &Trainer{Cfg: cfg, Seed: seed, Remotes: remotes}); !bytes.Equal(got, want) {
			t.Fatalf("training over %d TCP worker lanes changed the trained tree", len(remotes))
		}
	}
}

// TestShardedTrainRequeuesKilledWorker drops every connection of both
// workers after its third job — each lane dies and reconnects
// repeatedly across the run, with no healthy lane to absorb the
// requeued jobs — and still requires a byte-equal result.
func TestShardedTrainRequeuesKilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	want := inProcessBytes(t, seed)
	a, _ := startTCPWorker(t, &shardnet.Server{DieAfter: 3})
	b, _ := startTCPWorker(t, &shardnet.Server{DieAfter: 3})
	tr := &Trainer{
		Cfg:          tinyConfig(),
		Seed:         seed,
		Remotes:      []string{a, b},
		ShardTimeout: time.Minute,
	}
	got := trainBytes(t, tr)
	if !bytes.Equal(got, want) {
		t.Fatal("killed-and-requeued workers changed the trained tree")
	}
}

// tinyParkingLotConfig is a topology-bearing training distribution: a
// 3-hop parking lot with cross traffic, so every draw samples three
// independent link speeds and jobs ship the multi-hop description.
func tinyParkingLotConfig() Config {
	c := tinyConfig()
	c.Topology = scenario.ParkingLotN(3, true)
	c.SendersMin, c.SendersMax = 0, 0 // the topology fixes the flow count
	c.MinRTTMin = 120 * units.Millisecond
	c.MinRTTMax = 120 * units.Millisecond
	return c
}

// tinyGraphConfig trains over an explicit link/path graph, exercising
// the graph description's trip across the shard wire protocol.
func tinyGraphConfig() Config {
	c := tinyConfig()
	c.SendersMin, c.SendersMax = 0, 0 // the topology fixes the flow count
	c.Topology = scenario.GraphTopology(&topo.Graph{
		Edges: []topo.Edge{
			{Rate: 8 * units.Mbps, Prop: 20 * units.Millisecond},
			{Rate: 8 * units.Mbps, Prop: 10 * units.Millisecond},
			{Rate: 16 * units.Mbps, Prop: 20 * units.Millisecond},
		},
		Routes: []topo.Route{
			{Links: []int{0, 1, 2}},
			{Links: []int{1}},
			{Links: []int{0, 2}},
		},
	})
	return c
}

// tinyFatTreeConfig trains over a k=4 fat-tree incast under the given
// multipath routing policy — the smallest configuration whose jobs
// carry equal-cost path sets and a routing policy across the shard
// wire protocol.
func tinyFatTreeConfig(routing topo.RoutingPolicy) Config {
	c := tinyConfig()
	c.SendersMin, c.SendersMax = 0, 0 // the placement fixes the flow count
	c.Topology = scenario.FatTreeIncast(4, 3, routing)
	c.MinRTTMin = 120 * units.Millisecond
	c.MinRTTMax = 120 * units.Millisecond
	return c
}

// TestShardedTrainBitEqualTopologies extends the byte-equality
// guarantee to topology-bearing generations: sharded training over
// multi-hop topology draws (family, explicit-graph, and fat-tree
// descriptions shipped inside the job config) must match in-process
// training byte for byte, over one and over two TCP worker lanes.
func TestShardedTrainBitEqualTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"parkinglot3", tinyParkingLotConfig()},
		{"graph", tinyGraphConfig()},
		{"fattree-ecmp", tinyFatTreeConfig(topo.ECMP)},
		{"fattree-spray", tinyFatTreeConfig(topo.Spray)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 7
			want := trainBytes(t, &Trainer{Cfg: tc.cfg, Seed: seed, Workers: 4})
			requireRemotesBitEqual(t, tc.cfg, seed, want)
		})
	}
}

// TestFatTreeConfigJSONRejectsUnknownPolicy covers the Cfg blob's trip
// across the shard wire: the training config serializes its
// routing policy by name, round-trips exactly, and a blob naming a
// policy this build does not implement fails to decode (a worker must
// not silently degrade an unknown policy to ECMP and return
// wrong-but-plausible scores).
func TestFatTreeConfigJSONRejectsUnknownPolicy(t *testing.T) {
	cfg := tinyFatTreeConfig(topo.Adaptive)
	data, err := json.Marshal(&cfg)
	if err != nil {
		t.Fatalf("marshal config: %v", err)
	}
	if !bytes.Contains(data, []byte(`"routing":"adaptive"`)) {
		t.Fatalf("routing policy not serialized by name: %s", data)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal config: %v", err)
	}
	if back.Topology != cfg.Topology {
		t.Fatalf("topology changed in round trip: %+v vs %+v", back.Topology, cfg.Topology)
	}
	bad := bytes.Replace(data, []byte(`"adaptive"`), []byte(`"wormhole"`), 1)
	if err := json.Unmarshal(bad, &back); err == nil {
		t.Fatal("config blob with unknown routing policy decoded without error")
	}
}

// TestShardedTrainDifferentSeedsDiffer guards the guard: if the
// encoding or the trainer collapsed to a constant, the equality tests
// above would pass vacuously.
func TestShardedTrainDifferentSeedsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	a := inProcessBytes(t, 7)
	b := inProcessBytes(t, 8)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds trained byte-identical trees; differential tests are vacuous")
	}
}

// TestEvalShardJobMatchesLocalSlots cross-checks the worker's half of
// the one evaluation path directly: a job over any sub-range of a
// batch — decoded from bytes on the worker — must reproduce, bit for
// bit, the matching positions of the whole-batch evaluation the
// in-process trainer runs, including the fired sets and the usage
// frames of a range that splits the usageFor tree (fast enough to run
// in -short).
func TestEvalShardJobMatchesLocalSlots(t *testing.T) {
	cfg := tinyConfig()
	cfg.Replicas = 2
	cfg.Duration = 2 * units.Second
	ncfg := cfg.normalize()
	const seed, usageFor = 3, 1
	trees := []*remycc.Tree{
		remycc.NewTree(),
		remycc.NewTree().WithAction(0, remycc.Action{WindowMult: 1.05, WindowIncr: 2, Intersend: 0.001}),
		remycc.NewTree().WithAction(0, remycc.Action{WindowMult: 0.9, WindowIncr: 1, Intersend: 0.002}),
	}
	nSlots := len(trees) * ncfg.Replicas

	cfgJSON, err := json.Marshal(&ncfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := evalSlots(slotWork{
		cfg: &ncfg, cfgHash: shard.HashBytes(cfgJSON), draws: ncfg.generationDraws(seed, 0),
		trees: trees, lo: 0, hi: nSlots, usageFor: usageFor, workers: 2,
	}, nil)
	if len(whole.Usage) != ncfg.Replicas {
		t.Fatalf("whole batch returned %d usage frames, want %d", len(whole.Usage), ncfg.Replicas)
	}

	enc := make([][]byte, len(trees))
	for i := range trees {
		enc[i], _ = trees[i].MarshalBinary()
	}
	// [1,3) and [3,5) split the usageFor tree (slots 2 and 3) between
	// them; [2,4) is exactly that tree; [0,2) and [4,6) never touch it.
	for _, r := range []struct{ lo, hi int }{{0, nSlots}, {0, 2}, {1, 3}, {3, 5}, {2, 4}, {4, 6}, {5, 6}} {
		tiLo, tiHi := r.lo/ncfg.Replicas, (r.hi-1)/ncfg.Replicas
		res, err := EvalShardJob(&shard.Job{
			ID: 1, Version: shard.ProtocolVersion, Seed: seed, Gen: 0,
			Replicas: ncfg.Replicas, UsageFor: usageFor,
			SlotLo: r.lo, SlotHi: r.hi, Workers: 2,
			TreeLo: tiLo, Trees: enc[tiLo : tiHi+1], Cfg: cfgJSON,
		})
		if err != nil {
			t.Fatalf("slots [%d,%d): %v", r.lo, r.hi, err)
		}
		if !reflect.DeepEqual(res.Scores, whole.Scores[r.lo:r.hi]) {
			t.Fatalf("slots [%d,%d): job scores %v, whole-batch scores %v", r.lo, r.hi, res.Scores, whole.Scores[r.lo:r.hi])
		}
		// One-whisker trees: one fired word per slot.
		if !reflect.DeepEqual(res.Fired, whole.Fired[r.lo:r.hi]) {
			t.Fatalf("slots [%d,%d): job fired sets %b, whole-batch fired sets %b", r.lo, r.hi, res.Fired, whole.Fired[r.lo:r.hi])
		}
		var want []shard.UsageFrame
		for slot := r.lo; slot < r.hi; slot++ {
			if slot/ncfg.Replicas == usageFor {
				want = append(want, whole.Usage[slot%ncfg.Replicas])
			}
		}
		if !reflect.DeepEqual(res.Usage, want) {
			t.Fatalf("slots [%d,%d): job usage frames %+v, whole-batch frames %+v", r.lo, r.hi, res.Usage, want)
		}
	}
}
