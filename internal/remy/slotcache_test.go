package remy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

// FuzzDiskCacheEntry feeds the disk cache's loader the files it may
// find in its directory: the fuzz bytes are written as the entry file of
// one key, a cache is opened on the directory and asked for that key
// twice. The loader must never panic. It either rejects the file —
// deletes it and counts one rejection, and the second Get is a plain
// miss — or serves exactly the bytes after the header, from disk and
// then from memory, and it serves them exactly when the stored key is
// the key asked for and the stored SHA-256 is theirs. A served entry
// then goes through both decoders an entry can reach, the slot entry's
// and a whole job's result, which may fail but not panic. (The fuzzer
// lives here, not in shardnet, because the slot-entry decoder is this
// package's and this package imports shardnet.)
func FuzzDiskCacheEntry(f *testing.F) {
	key := shardnet.Key(sha256.Sum256([]byte("disk-entry")))
	const header = len(diskEntryMagic) + 2*len(key)
	// entry lays a file out the way the cache spills one: magic, key,
	// the result's SHA-256, the result.
	entry := func(k shardnet.Key, res []byte) []byte {
		sum := sha256.Sum256(res)
		b := append([]byte(diskEntryMagic), k[:]...)
		b = append(b, sum[:]...)
		return append(b, res...)
	}
	slot := entry(key, encodeSlotEntry(-3.5, nil, []uint64{0b101}))
	result, err := shard.EncodeResult(&shard.Result{ID: 9, Scores: []float64{1.5, -2}, Fired: []uint64{1, 2}}, true)
	if err != nil {
		f.Fatal(err)
	}
	wrongKey := key
	wrongKey[0] ^= 1
	flippedHash := bytes.Clone(slot)
	flippedHash[len(diskEntryMagic)+len(key)] ^= 1
	f.Add(slot)                           // a good slot entry
	f.Add(entry(key, result))             // a good whole-job entry
	f.Add(entry(key, nil))                // a good empty entry
	f.Add(slot[:len(slot)-1])             // truncated payload
	f.Add(slot[:len(diskEntryMagic)+40])  // truncated inside the header
	f.Add([]byte{})                       // empty file
	f.Add(entry(wrongKey, slot[header:])) // another key's entry
	f.Add(flippedHash)                    // a flipped hash byte
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, hex.EncodeToString(key[:]))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := shardnet.NewDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		valid := len(b) >= header && string(b[:len(diskEntryMagic)]) == diskEntryMagic &&
			bytes.Equal(b[len(diskEntryMagic):len(diskEntryMagic)+len(key)], key[:]) &&
			sha256.Sum256(b[header:]) == [sha256.Size]byte(b[len(diskEntryMagic)+len(key):header])
		for get := 1; get <= 2; get++ {
			res, ok := c.Get(key)
			st := c.Stats()
			if ok != valid {
				t.Fatalf("get %d: served %v an entry that verifies %v", get, ok, valid)
			}
			if !ok {
				if st.Rejected != 1 || st.Misses != uint64(get) {
					t.Fatalf("get %d: a rejected file left stats %+v, want 1 rejection and %d misses", get, st, get)
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("get %d: the rejected file is still there (stat: %v)", get, err)
				}
				continue
			}
			if !bytes.Equal(res, b[header:]) {
				t.Fatalf("get %d: served %x, the file holds %x", get, res, b[header:])
			}
			if st.Rejected != 0 || st.Hits != uint64(get) || st.DiskHits != 1 {
				t.Fatalf("get %d: a served entry left stats %+v", get, st)
			}
			decodeSlotEntry(res)
			shard.DecodeResult(res)
		}
	})
}

// diskEntryMagic is the tag the disk cache writes before every entry.
const diskEntryMagic = "RSC1"

// FuzzShardConfig covers the config a shard job carries, which a
// worker decodes from the wire. Whatever decodeShardConfig accepts must
// turn into scenarios: the first draw of a generation, with the senders
// evalOne would give it, must build without an error or a panic (the
// worker's scenario.MustRun would panic). Building stops short of
// simulating, so the fuzzer does not time runs. Validate bounds no
// size yet, and a k=24 fat tree or a few thousand senders take a minute
// to lay out, which Validate does for the distribution's corner draws;
// that is a per-config cost, not a crash, so configs beyond maxSize
// (replicas, hops, senders, partners) or beyond a k=8 fat tree are
// skipped before the worker's decode sees them. The crashers in
// testdata/fuzz passed the decode before Validate checked the corner
// draws and the partner counts.
func FuzzShardConfig(f *testing.F) {
	const maxSize = 256
	partner := tinyConfig()
	partner.Other = remycc.NewTree()
	partner.OtherCountMin, partner.OtherCountMax = 1, 2
	for _, cfg := range []Config{
		tinyConfig(), tinyECNVarRateConfig(), tinyParkingLotConfig(),
		tinyGraphConfig(), tinyFatTreeConfig(topo.Adaptive), partner,
	} {
		b, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var raw Config
		if json.Unmarshal(b, &raw) != nil {
			return
		}
		if n := raw.normalize(); n.Replicas > maxSize || n.Topology.Hops > maxSize || n.Topology.FatTreeK > 8 ||
			n.SendersMax > maxSize || n.OtherCountMax > maxSize {
			return
		}
		cfg, _, err := decodeShardConfig(&shard.Job{Cfg: b})
		if err != nil {
			return
		}
		d := cfg.generationDraws(1, 0)[0]
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
