package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"learnability/internal/cc/remycc"
)

// Differential tests for the v3 wire codecs: the binary codec must
// round-trip every job and result bit-exactly — including NaN and ±Inf
// scores, which the JSON reference codec cannot carry at all — and for
// finite values the two codecs must decode to identical structures, so
// a coordinator is free to speak either per payload.

// randJob draws a job with every field populated from r, optionally
// carrying a config blob addressed by its true hash.
func randJob(r *rand.Rand) *Job {
	job := &Job{
		ID:       r.Uint64(),
		Version:  ProtocolVersion,
		Seed:     r.Uint64(),
		Gen:      r.Intn(100),
		Replicas: 1 + r.Intn(16),
		UsageFor: r.Intn(32) - 1,
		SlotLo:   r.Intn(64),
		Workers:  r.Intn(8),
		TreeLo:   r.Intn(32),
	}
	job.SlotHi = job.SlotLo + 1 + r.Intn(64)
	for i := 0; i < r.Intn(4); i++ {
		tree := make([]byte, r.Intn(200))
		r.Read(tree)
		job.Trees = append(job.Trees, tree)
	}
	if r.Intn(2) == 0 {
		cfg := json.RawMessage(`{"Delta":` + string(rune('0'+r.Intn(10))) + `}`)
		job.CfgHash = HashBytes(cfg)
		if r.Intn(2) == 0 {
			job.Cfg = cfg
		}
	}
	return job
}

// randResult draws a result; when nonFinite is set, scores and usage
// sums include NaN and ±Inf.
func randResult(r *rand.Rand, nonFinite bool) *Result {
	res := &Result{
		ID:     r.Uint64(),
		Cached: r.Intn(2) == 0,
	}
	if r.Intn(8) == 0 {
		res.NeedCfg = true
		return res
	}
	if r.Intn(8) == 0 {
		res.Err = "evaluation exploded"
		return res
	}
	f64 := func() float64 {
		if nonFinite {
			switch r.Intn(5) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
		}
		return r.NormFloat64() * 1e6
	}
	for i := 0; i < 1+r.Intn(32); i++ {
		res.Scores = append(res.Scores, f64())
	}
	for i := 0; i < r.Intn(3); i++ {
		uf := UsageFrame{K: r.Intn(16)}
		nw := 1 + r.Intn(8)
		uf.Count = make([]int64, nw)
		uf.Sum = make([][remycc.NumSignals]float64, nw)
		for j := range uf.Count {
			uf.Count[j] = r.Int63()
			for d := range uf.Sum[j] {
				uf.Sum[j][d] = f64()
			}
		}
		res.Usage = append(res.Usage, uf)
	}
	return res
}

// jobsEqual compares jobs field by field (nil and empty byte slices
// are equivalent — the codecs do not distinguish them).
func jobsEqual(a, b *Job) bool {
	if a.ID != b.ID || a.Version != b.Version || a.Seed != b.Seed ||
		a.Gen != b.Gen || a.Replicas != b.Replicas || a.UsageFor != b.UsageFor ||
		a.SlotLo != b.SlotLo || a.SlotHi != b.SlotHi || a.Workers != b.Workers ||
		a.TreeLo != b.TreeLo || a.CfgHash != b.CfgHash {
		return false
	}
	if !bytes.Equal(a.Cfg, b.Cfg) || len(a.Trees) != len(b.Trees) {
		return false
	}
	for i := range a.Trees {
		if !bytes.Equal(a.Trees[i], b.Trees[i]) {
			return false
		}
	}
	return true
}

// resultsEqual compares results bit-exactly: floats are compared as
// IEEE-754 bit patterns, so NaN == NaN and -0 != +0.
func resultsEqual(a, b *Result) bool {
	if a.ID != b.ID || a.Cached != b.Cached || a.NeedCfg != b.NeedCfg ||
		a.Err != b.Err || len(a.Scores) != len(b.Scores) || len(a.Usage) != len(b.Usage) {
		return false
	}
	for i := range a.Scores {
		if math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
			return false
		}
	}
	for i := range a.Usage {
		ua, ub := a.Usage[i], b.Usage[i]
		if ua.K != ub.K || len(ua.Count) != len(ub.Count) || len(ua.Sum) != len(ub.Sum) {
			return false
		}
		for j := range ua.Count {
			if ua.Count[j] != ub.Count[j] {
				return false
			}
			for d := range ua.Sum[j] {
				if math.Float64bits(ua.Sum[j][d]) != math.Float64bits(ub.Sum[j][d]) {
					return false
				}
			}
		}
	}
	return true
}

// TestBinaryCodecRoundTripFuzz round-trips randomized jobs and results
// through the binary codec, including non-finite scores (the values
// that force the binary codec to exist: json.Marshal rejects them).
func TestBinaryCodecRoundTripFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		job := randJob(r)
		payload, err := EncodeJob(job, true)
		if err != nil {
			t.Fatalf("iter %d: encode job: %v", i, err)
		}
		if IsJSONPayload(payload) {
			t.Fatalf("iter %d: binary job payload sniffs as JSON", i)
		}
		got, jsonCodec, err := DecodeJob(payload)
		if err != nil {
			t.Fatalf("iter %d: decode job: %v", i, err)
		}
		if jsonCodec {
			t.Fatalf("iter %d: binary job reported as JSON codec", i)
		}
		if !jobsEqual(got, job) {
			t.Fatalf("iter %d: job round trip changed fields:\n got %+v\nwant %+v", i, got, job)
		}

		res := randResult(r, true)
		payload, err = EncodeResult(res, true)
		if err != nil {
			t.Fatalf("iter %d: encode result: %v", i, err)
		}
		gotRes, err := DecodeResult(payload)
		if err != nil {
			t.Fatalf("iter %d: decode result: %v", i, err)
		}
		if !resultsEqual(gotRes, res) {
			t.Fatalf("iter %d: result round trip changed fields:\n got %+v\nwant %+v", i, gotRes, res)
		}
	}
}

// TestCodecAgreementFuzz proves the two codecs are interchangeable for
// finite values: encoding the same frame both ways and decoding each
// yields identical structures, with the codec correctly sniffed from
// the payload's first byte.
func TestCodecAgreementFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		job := randJob(r)
		viaJSON, err := EncodeJob(job, false)
		if err != nil {
			t.Fatalf("iter %d: JSON encode: %v", i, err)
		}
		if !IsJSONPayload(viaJSON) {
			t.Fatalf("iter %d: JSON job payload does not sniff as JSON", i)
		}
		jsonJob, jsonCodec, err := DecodeJob(viaJSON)
		if err != nil || !jsonCodec {
			t.Fatalf("iter %d: JSON decode: %v (jsonCodec=%v)", i, err, jsonCodec)
		}
		viaBin, _ := EncodeJob(job, true)
		binJob, _, _ := DecodeJob(viaBin)
		if !jobsEqual(jsonJob, binJob) {
			t.Fatalf("iter %d: codecs disagree on job:\njson %+v\n bin %+v", i, jsonJob, binJob)
		}

		res := randResult(r, false)
		viaJSON, err = EncodeResult(res, false)
		if err != nil {
			t.Fatalf("iter %d: JSON encode result: %v", i, err)
		}
		jsonRes, err := DecodeResult(viaJSON)
		if err != nil {
			t.Fatalf("iter %d: JSON decode result: %v", i, err)
		}
		viaBin, _ = EncodeResult(res, true)
		binRes, _ := DecodeResult(viaBin)
		if !resultsEqual(jsonRes, binRes) {
			t.Fatalf("iter %d: codecs disagree on result:\njson %+v\n bin %+v", i, jsonRes, binRes)
		}
	}
}

// TestJSONCodecRejectsNonFinite documents the binary codec's reason to
// exist: the JSON reference codec cannot carry NaN scores at all.
func TestJSONCodecRejectsNonFinite(t *testing.T) {
	res := &Result{ID: 1, Scores: []float64{math.NaN()}}
	if _, err := EncodeResult(res, false); err == nil {
		t.Fatal("JSON codec accepted a NaN score")
	}
	if _, err := EncodeResult(res, true); err != nil {
		t.Fatalf("binary codec rejected a NaN score: %v", err)
	}
}

// TestBinaryDecodeRejectsTruncation truncates a valid binary frame at
// every length and requires a decode error (never a panic, never a
// silently short struct).
func TestBinaryDecodeRejectsTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	job := randJob(r)
	payload, _ := EncodeJob(job, true)
	for n := 0; n < len(payload); n++ {
		if _, _, err := DecodeJob(payload[:n]); err == nil {
			t.Fatalf("job truncated to %d/%d bytes decoded cleanly", n, len(payload))
		}
	}
	res := randResult(r, true)
	payload, _ = EncodeResult(res, true)
	for n := 0; n < len(payload); n++ {
		if _, err := DecodeResult(payload[:n]); err == nil {
			t.Fatalf("result truncated to %d/%d bytes decoded cleanly", n, len(payload))
		}
	}
}

// TestConfigStore exercises the worker-side content-addressed store:
// hash verification on Put, FIFO eviction at capacity, and Flush.
func TestConfigStore(t *testing.T) {
	st := NewConfigStore(2)
	cfg1, cfg2, cfg3 := []byte(`{"a":1}`), []byte(`{"a":2}`), []byte(`{"a":3}`)
	h1, h2, h3 := HashBytes(cfg1), HashBytes(cfg2), HashBytes(cfg3)

	if err := st.Put(h1, cfg2); err == nil {
		t.Fatal("Put accepted a blob that does not hash to its address")
	}
	if err := st.Put(h1, cfg1); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(h1)
	if !ok || !bytes.Equal(got, cfg1) {
		t.Fatalf("Get(h1) = %q, %v", got, ok)
	}
	if _, ok := st.Get(h2); ok {
		t.Fatal("Get hit for a config never stored")
	}

	// Stored blobs are copies: mutating the caller's slice afterwards
	// must not corrupt the store.
	mine := append([]byte(nil), cfg2...)
	st.Put(h2, mine)
	mine[0] = 'X'
	if got, _ := st.Get(h2); !bytes.Equal(got, cfg2) {
		t.Fatalf("stored config aliased the caller's buffer: %q", got)
	}

	// Capacity 2: storing a third evicts the oldest (h1).
	st.Put(h3, cfg3)
	if _, ok := st.Get(h1); ok {
		t.Fatal("oldest config not evicted at capacity")
	}
	if _, ok := st.Get(h2); !ok {
		t.Fatal("newer config evicted out of FIFO order")
	}

	st.Flush()
	if _, ok := st.Get(h2); ok {
		t.Fatal("Flush left a config behind")
	}
}

// TestCfgSentStripsAfterFirstSend checks the coordinator half of
// config-by-hash: a connection ships a config blob once, strips it
// from every later job with the same hash (without mutating the
// caller's job), and re-ships it on a forced refetch.
func TestCfgSentStripsAfterFirstSend(t *testing.T) {
	cfg := json.RawMessage(`{"Delta":1}`)
	job := &Job{ID: 1, CfgHash: HashBytes(cfg), Cfg: cfg}
	sent := cfgSent{}

	if first := sent.prep(job, false); len(first.Cfg) == 0 {
		t.Fatal("first send did not carry the config inline")
	}
	second := sent.prep(job, false)
	if len(second.Cfg) != 0 {
		t.Fatal("second send still carried the config blob")
	}
	if second.CfgHash != job.CfgHash {
		t.Fatal("stripped job lost its config hash")
	}
	if len(job.Cfg) == 0 {
		t.Fatal("prep mutated the caller's job")
	}
	if refetch := sent.prep(job, true); len(refetch.Cfg) == 0 {
		t.Fatal("forced refetch did not carry the config inline")
	}

	// Jobs without a hash are inline-only and pass through untouched.
	inline := &Job{ID: 2, Cfg: cfg}
	if got := sent.prep(inline, false); got != inline || len(got.Cfg) == 0 {
		t.Fatal("hashless job was not passed through verbatim")
	}
}
