package remy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// Unit tests for the slot-level cache plumbing: key canonicalization
// (every semantic input must be in the address; nothing else may be)
// and bit-exact entry round trips.

// slotTestDraw builds a fixed scenario draw; tests mutate one field at
// a time to prove each is part of the cache key.
func slotTestDraw() draw {
	return draw{
		linkSpeed:  12 * units.Mbps,
		linkSpeeds: []units.Rate{12 * units.Mbps, 24 * units.Mbps},
		minRTT:     100 * units.Millisecond,
		nTrainee:   2,
		nAIMD:      1,
		nOther:     3,
		seed:       rng.New(9).Split("scenario"),
	}
}

func TestSlotKeyCanonicalization(t *testing.T) {
	cfgHash := shard.HashBytes([]byte(`{"Delta":1}`))
	tree := []byte{1, 2, 3, 4}

	base := slotKey(cfgHash, slotTestDraw(), tree)
	if again := slotKey(cfgHash, slotTestDraw(), tree); again != base {
		t.Fatal("identical inputs produced different slot keys")
	}

	mutations := map[string]func() shardnet.Key{
		"cfg hash": func() shardnet.Key {
			return slotKey(shard.HashBytes([]byte(`{"Delta":2}`)), slotTestDraw(), tree)
		},
		"tree bytes": func() shardnet.Key {
			return slotKey(cfgHash, slotTestDraw(), []byte{1, 2, 3, 5})
		},
		"link speed": func() shardnet.Key {
			d := slotTestDraw()
			d.linkSpeed = 13 * units.Mbps
			return slotKey(cfgHash, d, tree)
		},
		"per-link speeds": func() shardnet.Key {
			d := slotTestDraw()
			d.linkSpeeds[1] = 25 * units.Mbps
			return slotKey(cfgHash, d, tree)
		},
		"min RTT": func() shardnet.Key {
			d := slotTestDraw()
			d.minRTT = 101 * units.Millisecond
			return slotKey(cfgHash, d, tree)
		},
		"trainee count": func() shardnet.Key {
			d := slotTestDraw()
			d.nTrainee = 3
			return slotKey(cfgHash, d, tree)
		},
		"aimd count": func() shardnet.Key {
			d := slotTestDraw()
			d.nAIMD = 2
			return slotKey(cfgHash, d, tree)
		},
		"other count": func() shardnet.Key {
			d := slotTestDraw()
			d.nOther = 4
			return slotKey(cfgHash, d, tree)
		},
		"rng stream": func() shardnet.Key {
			d := slotTestDraw()
			d.seed = rng.New(10).Split("scenario")
			return slotKey(cfgHash, d, tree)
		},
	}
	for name, mutate := range mutations {
		if mutate() == base {
			t.Errorf("changing the %s did not change the slot key (stale cache hits possible)", name)
		}
	}
}

func TestSlotEntryRoundTrip(t *testing.T) {
	u := &remycc.UsageStats{
		Count: []int64{3, 0, 7},
		Sum: [][remycc.NumSignals]float64{
			{0.5, -1.25, 1e-9, 2},
			{},
			{math.Pi, 0, -0.0, 1e300},
		},
	}
	b := encodeSlotEntry(-12.75, u, nil)
	score, got, fired, err := decodeSlotEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if score != -12.75 || got == nil || fired != nil {
		t.Fatalf("decoded score %v, usage %v, fired %v", score, got, fired)
	}
	for i := range u.Count {
		if got.Count[i] != u.Count[i] || got.Sum[i] != u.Sum[i] {
			t.Fatalf("whisker %d usage changed in round trip: %v/%v vs %v/%v",
				i, got.Count[i], got.Sum[i], u.Count[i], u.Sum[i])
		}
	}

	b = encodeSlotEntry(2.5, nil, []uint64{0b101, 1 << 63})
	score, got, fired, err = decodeSlotEntry(b)
	if err != nil || score != 2.5 || got != nil || !reflect.DeepEqual(fired, []uint64{0b101, 1 << 63}) {
		t.Fatalf("usage-less entry decoded to %v, %v, %v, %v", score, got, fired, err)
	}

	for _, full := range [][]byte{encodeSlotEntry(1, u, nil), b} {
		for n := 0; n < len(full); n++ {
			if _, _, _, err := decodeSlotEntry(full[:n]); err == nil {
				t.Fatalf("entry truncated to %d/%d bytes decoded cleanly", n, len(full))
			}
		}
	}

	// The score-only format from before entries carried fired sets:
	// the score's bits and a zero flag, nine bytes in all.
	old := binary.LittleEndian.AppendUint64(nil, math.Float64bits(2.5))
	if _, _, _, err := decodeSlotEntry(append(old, 0)); err == nil {
		t.Fatal("a score-only entry without a fired set decoded cleanly")
	}
}

// TestJobKeyMatchesEncodedJob holds the streamed replay key to its
// definition, sha256 of the binary job with ID and Workers zeroed and
// the config reduced to its hash, over random jobs, so replay entries
// already on disk keep their addresses. It also checks that computing
// the key allocates nothing.
func TestJobKeyMatchesEncodedJob(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	blob := func(max int) []byte {
		b := make([]byte, r.Intn(max+1))
		r.Read(b)
		return b
	}
	for i := 0; i < 500; i++ {
		job := &shard.Job{
			ID: r.Uint64(), Version: r.Intn(5), Seed: r.Uint64(), Gen: r.Intn(100) - 1,
			Replicas: r.Intn(20), UsageFor: r.Intn(10) - 1, SlotLo: r.Intn(1000), SlotHi: r.Intn(1000),
			Workers: r.Intn(64), TreeLo: r.Intn(50), Cfg: blob(300),
		}
		for k := 0; k < job.Replicas; k++ {
			if r.Intn(3) == 0 {
				job.Reps = append(job.Reps, k)
			}
		}
		if r.Intn(2) == 0 {
			job.CfgHash = shard.HashBytes(job.Cfg)
		}
		for n := r.Intn(6); n > 0; n-- {
			job.Trees = append(job.Trees, blob(2000))
		}

		zeroed := *job
		zeroed.ID, zeroed.Workers, zeroed.Cfg = 0, 0, nil
		if zeroed.CfgHash.IsZero() {
			zeroed.CfgHash = shard.HashBytes(job.Cfg)
		}
		enc, err := shard.EncodeJob(&zeroed, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jobKey(job), shardnet.Key(sha256.Sum256(enc)); got != want {
			t.Fatalf("job %d: jobKey = %x, sha256(EncodeJob(zeroed)) = %x", i, got, want)
		}
		if got := shard.HashJob(job); got != shard.HashBytes(mustEncodeJob(t, job)) {
			t.Fatalf("job %d: HashJob differs from the hash of EncodeJob", i)
		}
	}

	job := &shard.Job{Version: shard.ProtocolVersion, Cfg: []byte(`{"Delta":1}`), Trees: [][]byte{blob(3000), blob(3000)}}
	if allocs := testing.AllocsPerRun(100, func() { jobKey(job) }); allocs >= 1 {
		t.Fatalf("jobKey allocates %.2f times per call, want none", allocs)
	}
}

func mustEncodeJob(t *testing.T, job *shard.Job) []byte {
	t.Helper()
	b, err := shard.EncodeJob(job, true)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzSlotEntry covers the one decoder in this package that reads
// bytes it may not have written — entries come back from the disk
// cache. decodeSlotEntry must never panic, and on every input it
// accepts the encoding is canonical: re-encoding the decoded entry
// reproduces the input byte for byte.
func FuzzSlotEntry(f *testing.F) {
	usage := &remycc.UsageStats{
		Count: []int64{3, 0},
		Sum:   [][remycc.NumSignals]float64{{0.5, -1.25, 1e-9, 2, 0.25}, {}},
	}
	full := encodeSlotEntry(-12.75, usage, nil)
	fired := encodeSlotEntry(2.5, nil, []uint64{0b11, 1 << 40})
	badFlag := encodeSlotEntry(1, nil, []uint64{1})
	badFlag[8] = 3
	bigCount := encodeSlotEntry(1, nil, []uint64{1})
	binary.LittleEndian.PutUint32(bigCount[9:], 1<<31)
	f.Add(fired)                                               // score and fired set
	f.Add(encodeSlotEntry(0, nil, nil))                        // empty fired set
	f.Add(full)                                                // usage-bearing
	f.Add(full[:len(full)-3])                                  // truncated
	f.Add(fired[:len(fired)-1])                                // truncated fired set
	f.Add(badFlag)                                             // bad flag
	f.Add(bigCount)                                            // count beyond the bytes
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<62)[:8:8])  // score alone
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 7), 0)) // the older score-only format
	f.Fuzz(func(t *testing.T, b []byte) {
		score, u, fired, err := decodeSlotEntry(b)
		if err != nil {
			return
		}
		if again := encodeSlotEntry(score, u, fired); !bytes.Equal(again, b) {
			t.Fatalf("accepted entry is not canonical:\n in  %x\n out %x", b, again)
		}
	})
}

// FuzzShardConfig covers the config a shard job carries, which a
// worker decodes from the wire. Whatever decodeShardConfig accepts must
// turn into scenarios: the first draw of a generation, with the senders
// evalOne would give it, must build without an error or a panic (the
// worker's scenario.MustRun would panic). Building stops short of
// simulating, so the fuzzer does not time runs. Validate bounds no
// size yet, and a k=24 fat tree or a few thousand senders take a minute
// to build; that is a per-job cost, not a crash, so configs beyond
// maxSize (replicas, hops, senders) or beyond a k=8 fat tree are
// skipped.
func FuzzShardConfig(f *testing.F) {
	const maxSize = 256
	for _, cfg := range []Config{
		tinyConfig(), tinyECNVarRateConfig(), tinyParkingLotConfig(),
		tinyGraphConfig(), tinyFatTreeConfig(topo.Adaptive),
	} {
		b, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, _, err := decodeShardConfig(&shard.Job{Cfg: b})
		if err != nil || cfg.Replicas > maxSize || cfg.Topology.Hops > maxSize || cfg.Topology.FatTreeK > 8 {
			return
		}
		d := cfg.generationDraws(1, 0)[0]
		if d.nTrainee+d.nOther+d.nAIMD > maxSize {
			return
		}
		var senders []scenario.Sender
		for i := 0; i < d.nTrainee; i++ {
			senders = append(senders, scenario.Sender{Alg: remycc.NewMasked(remycc.NewTree(), cfg.Mask), Delta: cfg.Delta})
		}
		for i := 0; i < d.nOther; i++ {
			senders = append(senders, scenario.Sender{Alg: remycc.New(cfg.Other), Delta: cfg.OtherDelta})
		}
		for i := 0; i < d.nAIMD; i++ {
			senders = append(senders, scenario.Sender{Alg: newreno.New(), Delta: cfg.Delta})
		}
		if _, _, err := scenario.Build(cfg.spec(d, senders)); err != nil {
			t.Fatalf("accepted config does not build: %v\n%s", err, b)
		}
	})
}
