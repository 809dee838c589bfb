package remy

import (
	"bytes"
	"crypto/sha256"
	"math"
	"math/rand"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/rng"
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
	b := encodeSlotEntry(-12.75, u)
	score, got, err := decodeSlotEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if score != -12.75 || got == nil {
		t.Fatalf("decoded score %v, usage %v", score, got)
	}
	for i := range u.Count {
		if got.Count[i] != u.Count[i] || got.Sum[i] != u.Sum[i] {
			t.Fatalf("whisker %d usage changed in round trip: %v/%v vs %v/%v",
				i, got.Count[i], got.Sum[i], u.Count[i], u.Sum[i])
		}
	}

	b = encodeSlotEntry(2.5, nil)
	score, got, err = decodeSlotEntry(b)
	if err != nil || score != 2.5 || got != nil {
		t.Fatalf("usage-less entry decoded to %v, %v, %v", score, got, err)
	}

	full := encodeSlotEntry(1, u)
	for n := 0; n < len(full); n++ {
		if _, _, err := decodeSlotEntry(full[:n]); err == nil {
			t.Fatalf("entry truncated to %d/%d bytes decoded cleanly", n, len(full))
		}
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
	full := encodeSlotEntry(-12.75, usage)
	badFlag := encodeSlotEntry(1, nil)
	badFlag[8] = 2
	f.Add(encodeSlotEntry(2.5, nil)) // score-only
	f.Add(full)                      // usage-bearing
	f.Add(full[:len(full)-3])        // truncated
	f.Add(badFlag)                   // bad flag
	f.Fuzz(func(t *testing.T, b []byte) {
		score, u, err := decodeSlotEntry(b)
		if err != nil {
			return
		}
		if again := encodeSlotEntry(score, u); !bytes.Equal(again, b) {
			t.Fatalf("accepted entry is not canonical:\n in  %x\n out %x", b, again)
		}
	})
}
