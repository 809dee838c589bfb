package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
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
	for k := 0; k < job.Replicas; k++ {
		if r.Intn(2) == 0 {
			job.Reps = append(job.Reps, k)
		}
	}
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
		return res // no slots at all
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
	if words := r.Intn(3); words > 0 {
		res.Fired = make([]uint64, words*len(res.Scores))
		for i := range res.Fired {
			res.Fired[i] = r.Uint64() >> r.Intn(64)
		}
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
	if !bytes.Equal(a.Cfg, b.Cfg) || len(a.Trees) != len(b.Trees) || len(a.Reps) != len(b.Reps) {
		return false
	}
	for i := range a.Reps {
		if a.Reps[i] != b.Reps[i] {
			return false
		}
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
	if a.ID != b.ID || a.Cached != b.Cached ||
		a.Err != b.Err || len(a.Scores) != len(b.Scores) || len(a.Usage) != len(b.Usage) ||
		len(a.Fired) != len(b.Fired) {
		return false
	}
	for i := range a.Fired {
		if a.Fired[i] != b.Fired[i] {
			return false
		}
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

// TestDecodeResultRejectsUnevenFired requires both codecs to reject
// fired sets that do not split evenly over the result's slots (and
// fired words without slots), and the encoder to refuse to write one.
func TestDecodeResultRejectsUnevenFired(t *testing.T) {
	good := &Result{ID: 1, Scores: []float64{1, 2, 3}, Fired: []uint64{1, 2, 3, 4, 5, 6}}
	payload, err := EncodeResult(good, true)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := DecodeResult(payload); err != nil || !resultsEqual(back, good) {
		t.Fatalf("two words per slot: decoded %+v, %v", back, err)
	}
	for _, bad := range []*Result{
		{ID: 2, Scores: []float64{1, 2, 3}, Fired: []uint64{1, 2, 3, 4}},
		{ID: 3, Fired: []uint64{7}},
	} {
		if _, err := EncodeResult(bad, true); err == nil {
			t.Fatalf("binary encoder wrote %d fired words for %d slots", len(bad.Fired), len(bad.Scores))
		}
		// Hand-build the frame the encoder refuses: a valid frame for
		// the scores, with the fired words spliced on in place of its
		// empty fired list.
		ok := &Result{ID: bad.ID, Scores: bad.Scores}
		frame, err := EncodeResult(ok, true)
		if err != nil {
			t.Fatal(err)
		}
		frame = binary.LittleEndian.AppendUint32(frame[:len(frame)-4], uint32(len(bad.Fired)))
		for _, w := range bad.Fired {
			frame = binary.LittleEndian.AppendUint64(frame, w)
		}
		if _, err := DecodeResult(frame); err == nil {
			t.Fatalf("binary decoder accepted %d fired words for %d slots", len(bad.Fired), len(bad.Scores))
		}
		js, err := EncodeResult(bad, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(js); err == nil {
			t.Fatalf("JSON decoder accepted %d fired words for %d slots", len(bad.Fired), len(bad.Scores))
		}
	}
}

// TestDecodeBoundsCountsByRemainingBytes hands each decoder a frame
// whose replica or fired count claims far more elements than the bytes
// left could hold: the decoder must fail before allocating them.
func TestDecodeBoundsCountsByRemainingBytes(t *testing.T) {
	job := &Job{ID: 1, Version: ProtocolVersion, Replicas: 4, SlotHi: 1, Reps: []int{1, 3}}
	payload, err := EncodeJob(job, true)
	if err != nil {
		t.Fatal(err)
	}
	at := len(payload) - 4 - 8*len(job.Reps)
	binary.LittleEndian.PutUint32(payload[at:], 1<<30)
	if _, _, err := DecodeJob(payload); err == nil {
		t.Fatal("job with a replica count beyond its bytes decoded")
	}
	res := &Result{ID: 1, Scores: []float64{1}, Fired: []uint64{5}}
	payload, err = EncodeResult(res, true)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(payload[len(payload)-12:], 1<<30)
	if _, err := DecodeResult(payload); err == nil {
		t.Fatal("result with a fired count beyond its bytes decoded")
	}
}

// FuzzDecodeJob feeds arbitrary payloads to DecodeJobInto, the job
// reader a worker daemon runs on bytes from a socket, decoding into a
// Job a last job left. It must never panic and must refuse every JSON
// payload; whatever binary payload it accepts, DecodeJob decodes to the
// same job, it re-encodes to the payload byte for byte, and HashJob —
// which hashes the bytes the decoder kept — is the payload's SHA-256.
func FuzzDecodeJob(f *testing.F) {
	r := rand.New(rand.NewSource(4))
	for _, job := range append(testJobs(2, 3), randJob(r), randJob(r), randJob(r)) {
		for _, binaryCodec := range []bool{true, false} {
			payload, err := EncodeJob(job, binaryCodec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
	lastJob := randJob(r)
	for len(lastJob.Trees) < 2 {
		lastJob = randJob(r)
	}
	last, err := EncodeJob(lastJob, true)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		job := &Job{}
		if err := DecodeJobInto(last, job); err != nil {
			t.Fatal(err)
		}
		err := DecodeJobInto(payload, job)
		if IsJSONPayload(payload) {
			if err == nil {
				t.Fatalf("the socket's job reader accepted a JSON payload: %+v", job)
			}
			return
		}
		want, _, werr := DecodeJob(payload)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeJobInto says %v where DecodeJob says %v", err, werr)
		}
		if err != nil {
			return
		}
		if !jobsEqual(job, want) {
			t.Fatalf("DecodeJobInto gives %+v; DecodeJob %+v", job, want)
		}
		if got, want := HashJob(job), HashBytes(payload); got != want {
			t.Fatalf("HashJob of the decoded job %s, sha256 of its payload %s", got, want)
		}
		wire, err := EncodeJob(job, true)
		if err != nil {
			t.Fatalf("accepted job does not re-encode: %v", err)
		}
		if !bytes.Equal(wire, payload) {
			t.Fatalf("binary job re-encodes differently:\n got %x\nwant %x", wire, payload)
		}
	})
}

// FuzzDecodeResult is FuzzDecodeJob's twin for the result decoder, the
// coordinator's reader of worker replies.
func FuzzDecodeResult(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		res := randResult(r, i%2 == 0)
		for _, binaryCodec := range []bool{true, false} {
			payload, err := EncodeResult(res, binaryCodec)
			if err != nil {
				continue // the JSON codec cannot carry non-finite scores
			}
			f.Add(payload)
		}
	}
	// A fixed result with two fired words per slot, so the corpus
	// carries a fired list whatever the random results draw.
	fired := &Result{ID: 7, Scores: []float64{1.5, -2, 0}, Fired: []uint64{1, 0, 1 << 63, 5, 0, 3}}
	for _, binaryCodec := range []bool{true, false} {
		payload, err := EncodeResult(fired, binaryCodec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := DecodeResult(payload)
		if !IsJSONPayload(payload) && (CheckResult(payload) == nil) != (err == nil) {
			t.Fatalf("CheckResult says %v where DecodeResult says %v", CheckResult(payload), err)
		}
		if err != nil {
			return
		}
		wire, err := EncodeResult(res, true)
		if err != nil {
			t.Fatalf("accepted result does not re-encode: %v", err)
		}
		if !IsJSONPayload(payload) && !bytes.Equal(wire, payload) {
			t.Fatalf("binary result re-encodes differently:\n got %x\nwant %x", wire, payload)
		}
		back, err := DecodeResult(wire)
		if err != nil || !resultsEqual(back, res) {
			t.Fatalf("re-encoded result decodes to %+v, %v; want %+v", back, err, res)
		}
	})
}

// TestReadPayloadAllocatesAsBytesArrive sends a header that claims the
// largest frame the wire allows, a few payload bytes and then EOF: the
// reader must fail having allocated a small fraction of the claim, not
// the claim itself.
func TestReadPayloadAllocatesAsBytesArrive(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	stream := append(hdr[:], "a few bytes"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadPayload(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame was read")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a %d-byte stream claiming a %d-byte frame allocated %d bytes", len(stream), maxFrame, alloc)
	}
}

// TestReadPayloadGrowsToLongFrames reads frames around and well past
// the size read at once, whole and cut short.
func TestReadPayloadGrowsToLongFrames(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, readChunk - 1, readChunk, readChunk + 1, 3*readChunk + 17, 40 * readChunk} {
		payload := make([]byte, n)
		r.Read(payload)
		frame := binary.BigEndian.AppendUint32(nil, uint32(n))
		frame = append(frame, payload...)
		got, err := ReadPayload(bytes.NewReader(frame))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame: read %d bytes, err %v", n, len(got), err)
		}
		if n > 0 {
			if _, err := ReadPayload(bytes.NewReader(frame[:len(frame)-1])); err == nil {
				t.Fatalf("%d-byte frame cut one byte short was read", n)
			}
		}
	}
}
