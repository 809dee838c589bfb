package shard

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"learnability/internal/cc/remycc"
)

// editJobs are jobs whose trees exercise the edit code: a hill-climb
// batch's neighbour trees (one whisker's action apart), identical
// trees, trees of two lengths in turn, and a single tree.
func editJobs(tb testing.TB) []struct {
	name string
	job  *Job
} {
	tb.Helper()
	small := remycc.NewTree()
	dom := small.Whiskers[0].Domain
	var at remycc.Vector
	for d := range at {
		at[d] = (dom.Lo[d] + dom.Hi[d]) / 2
	}
	big, ok := small.Split(0, at, []remycc.Signal{remycc.RecEWMA, remycc.RTTRatio})
	if !ok {
		tb.Fatal("split of the initial tree failed")
	}
	enc := func(t *remycc.Tree) []byte {
		b, err := t.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	bigEnc, smallEnc := enc(big), enc(small)
	var neighbours [][]byte
	a := big.Action(1)
	for _, dm := range []float64{-0.2, -0.05, 0.05, 0.2} {
		n := a
		n.WindowMult += dm
		neighbours = append(neighbours, remycc.AppendWithAction(nil, bigEnc, 1, n))
	}
	for _, ft := range []float64{0.25, 0.5, 4} {
		n := a
		n.Intersend *= ft
		neighbours = append(neighbours, remycc.AppendWithAction(nil, bigEnc, 1, n))
	}
	cfg := []byte(`{"Delta":1}`)
	job := func(trees ...[]byte) *Job {
		return &Job{
			ID: 9, Version: ProtocolVersion, Seed: 4, Gen: 2, Replicas: 4, UsageFor: -1,
			SlotLo: 0, SlotHi: 2 * len(trees), Workers: 2, Trees: trees, Reps: []int{1, 3},
			Cfg: cfg, CfgHash: HashBytes(cfg),
		}
	}
	return []struct {
		name string
		job  *Job
	}{
		{"neighbours", job(neighbours...)},
		{"identical", job(bigEnc, bigEnc, bigEnc, bigEnc, bigEnc, bigEnc, bigEnc)},
		{"two lengths", job(smallEnc, bigEnc, smallEnc, neighbours[0], smallEnc)},
		{"one tree", job(bigEnc)},
	}
}

// TestEditCodedJobsRoundTrip round-trips jobs of edit-coded trees, into
// a fresh and into a reused Job, and holds HashJob to the hash of the
// encoding, both of the job as built and of the job as decoded. A batch
// of neighbour trees must cross in about one tree's bytes.
func TestEditCodedJobsRoundTrip(t *testing.T) {
	reused := &Job{}
	for _, tc := range editJobs(t) {
		payload, err := EncodeJob(tc.job, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := HashJob(tc.job), Hash(sha256.Sum256(payload)); got != want {
			t.Fatalf("%s: HashJob %s, sha256 of EncodeJob %s", tc.name, got, want)
		}
		got, _, err := DecodeJob(payload)
		if err != nil || !jobsEqual(got, tc.job) {
			t.Fatalf("%s: decodes to %+v, %v", tc.name, got, err)
		}
		// The Job a worker session reuses from job to job.
		if err := DecodeJobInto(payload, reused); err != nil || !jobsEqual(reused, tc.job) {
			t.Fatalf("%s: decodes into a reused Job as %+v, %v", tc.name, reused, err)
		}
		if again, err := EncodeJob(reused, true); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("%s: the decoded job re-encodes differently", tc.name)
		}
		if got, want := HashJob(reused), Hash(sha256.Sum256(payload)); got != want {
			t.Fatalf("%s: HashJob of the decoded job %s, sha256 of its payload %s", tc.name, got, want)
		}
		whole := 0
		for _, tree := range tc.job.Trees {
			whole += len(tree)
		}
		t.Logf("%s: %d trees, %d tree bytes, %d-byte job", tc.name, len(tc.job.Trees), whole, len(payload))
		if tc.name == "neighbours" && len(payload) > whole/3 {
			t.Fatalf("%d neighbour trees of %d bytes cross in a %d-byte job", len(tc.job.Trees), whole, len(payload))
		}
	}
}

// TestHashJobSeesChangedTrees changes a decoded job's trees and
// replicas every way a caller could — a new Trees slice, one tree
// replaced in place, a tree more or fewer, new Reps, one replica
// changed in place — and requires HashJob to hash the job as it now is,
// not the bytes that arrived.
func TestHashJobSeesChangedTrees(t *testing.T) {
	jobs := editJobs(t)
	base, other := jobs[0].job, jobs[2].job
	payload, err := EncodeJob(base, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		change func(j *Job)
	}{
		{"new trees", func(j *Job) { j.Trees = other.Trees }},
		{"copied trees", func(j *Job) {
			j.Trees = append([][]byte(nil), j.Trees...)
			j.Trees[1] = other.Trees[1]
		}},
		{"one tree in place", func(j *Job) { j.Trees[3] = other.Trees[0] }},
		{"one tree more", func(j *Job) { j.Trees = append(j.Trees, other.Trees[0]) }},
		{"one tree fewer", func(j *Job) { j.Trees = j.Trees[:len(j.Trees)-1] }},
		{"no trees", func(j *Job) { j.Trees = nil }},
		{"new reps", func(j *Job) { j.Reps = []int{0, 1, 2} }},
		{"one rep fewer", func(j *Job) { j.Reps = j.Reps[1:] }},
		{"no reps", func(j *Job) { j.Reps = nil }},
		{"one rep in place", func(j *Job) { j.Reps[1] = 2 }},
	} {
		job := &Job{}
		if err := DecodeJobInto(payload, job); err != nil {
			t.Fatal(err)
		}
		tc.change(job)
		built := &Job{}
		*built = *job
		built.rx = received{}
		want := Hash(sha256.Sum256(mustEncode(t, built)))
		if got := HashJob(job); got != want {
			t.Fatalf("%s: HashJob %s, sha256 of the changed job's encoding %s", tc.name, got, want)
		}
		if got := HashJob(job); got == HashBytes(payload) {
			t.Fatalf("%s: HashJob still hashes the received bytes", tc.name)
		}
	}
}

// mustEncode is EncodeJob in the binary codec for a job that encodes.
func mustEncode(tb testing.TB, job *Job) []byte {
	tb.Helper()
	b, err := EncodeJob(job, true)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// encodeEdit encodes a two-tree job whose second tree is the edit
// (pre, suf, mid) of first, canonical or not.
func encodeEdit(first []byte, pre, suf int, mid []byte) []byte {
	job := &Job{Version: ProtocolVersion, UsageFor: -1, SlotHi: 1}
	b := appendJobHead(nil, job)
	b = appendBlob(b, nil)
	b = append(b, 2, 0, 0, 0)
	b = appendBlob(b, first)
	b = appendTreeEditHead(b, pre, suf)
	b = appendBlob(b, mid)
	return appendReps(b, nil)
}

// TestDecodeJobRefusesNonCanonicalEdits requires the decoder to refuse
// every edit but treeEdit's — the encoder's only output, so that every
// accepted frame re-encodes to itself — and an edit that keeps more
// bytes than the previous tree has.
func TestDecodeJobRefusesNonCanonicalEdits(t *testing.T) {
	a := []byte("0123456789abcdefghij")
	b := append([]byte("X"), a[1:]...) // a with its first byte changed
	for _, tc := range []struct {
		name     string
		pre, suf int
		mid      []byte
		want     string // "" accepts
	}{
		{"identical, canonical", len(a), 0, nil, ""},
		{"identical, whole", 0, 0, a, "not canonical"},
		{"identical, prefix short by one", len(a) - 1, 0, a[len(a)-1:], "not canonical"},
		{"identical, suffix only", 0, len(a), nil, "not canonical"},
		{"first byte changed, canonical", 0, len(a) - 1, b[:1], ""},
		{"first byte changed, suffix short by one", 0, len(a) - 2, b[:2], "not canonical"},
		{"shortened, canonical", 10, 0, nil, ""},
		{"prefix and suffix past the tree", len(a), 1, nil, "keeps"},
		{"prefix past the tree", len(a) + 1, 0, nil, "keeps"},
		{"suffix past the tree", 0, len(a) + 1, []byte("Y"), "keeps"},
	} {
		payload := encodeEdit(a, tc.pre, tc.suf, tc.mid)
		job, _, err := DecodeJob(payload)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want == "":
			if again, err := EncodeJob(job, true); err != nil || !bytes.Equal(again, payload) {
				t.Errorf("%s: accepted but re-encodes differently", tc.name)
			}
		case err == nil || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: got error %v, want one saying %q", tc.name, err, tc.want)
		}
	}
}

// TestTreeEditFindsWordwiseRuns holds the word-at-a-time prefix and
// suffix scans to byte loops over every split of short slices.
func TestTreeEditFindsWordwiseRuns(t *testing.T) {
	slow := func(a, b []byte, fromEnd bool) int {
		i := 0
		for i < len(a) && i < len(b) {
			x, y := a[i], b[i]
			if fromEnd {
				x, y = a[len(a)-1-i], b[len(b)-1-i]
			}
			if x != y {
				break
			}
			i++
		}
		return i
	}
	// Long enough for the block compares, short enough to try every
	// length, with the difference at every seventh byte and at the end.
	base := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog, twice over"), 7)
	for n := 0; n <= len(base); n++ {
		var places []int
		for at := 0; at < n; at += 7 {
			places = append(places, at)
		}
		for _, at := range append(places, n) {
			a := base[:n]
			for _, b := range [][]byte{
				append(append([]byte{}, a[:at]...), '#'),
				append(append(append([]byte{}, a[:at]...), '#'), a[min(at+1, n):]...),
				append(append([]byte{}, a[:at]...), a[min(at+3, n):]...),
			} {
				if got, want := commonPrefix(a, b), slow(a, b, false); got != want {
					t.Fatalf("commonPrefix(%q, %q) = %d, want %d", a, b, got, want)
				}
				if got, want := commonSuffix(a, b), slow(a, b, true); got != want {
					t.Fatalf("commonSuffix(%q, %q) = %d, want %d", a, b, got, want)
				}
			}
		}
	}
}

// TestStoredResultWritesThrough holds a replayed result to the bytes
// it was stored as, with only its ID and Cached flag stamped, and
// CheckResult to DecodeResult's verdict without allocating.
func TestStoredResultWritesThrough(t *testing.T) {
	res := &Result{ID: 3, Scores: []float64{1.5, -2}, Fired: []uint64{1, 3},
		Usage: []UsageFrame{{K: 1, Count: []int64{4}, Sum: make([][remycc.NumSignals]float64, 1)}}}
	stored, err := EncodeResult(res, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckResult(stored); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { CheckResult(stored) }); allocs != 0 {
		t.Fatalf("CheckResult allocates %.1f times per call", allocs)
	}
	replay := StoredResult(stored)
	replay.ID = 77
	want := *res
	want.ID, want.Cached = 77, true
	wantWire, _ := EncodeResult(&want, true)
	frame, err := AppendResultFrame([]byte("head"), replay)
	if err != nil || !bytes.Equal(frame[4+4:], wantWire) {
		t.Fatalf("stored result frames as %x, %v; want %x", frame, err, wantWire)
	}
	for _, binaryCodec := range []bool{true, false} {
		wire, err := EncodeResult(replay, binaryCodec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeResult(wire)
		if err != nil || !resultsEqual(back, &want) {
			t.Fatalf("binary=%v: stored result decodes to %+v, %v", binaryCodec, back, err)
		}
	}
	if !bytes.Equal(stored, mustEncodeResult(t, res)) {
		t.Fatal("encoding a stored result wrote into its bytes")
	}
	for cut := 0; cut < len(stored); cut++ {
		if CheckResult(stored[:cut]) == nil {
			t.Fatalf("CheckResult accepts the first %d of %d bytes", cut, len(stored))
		}
	}
}

func mustEncodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := EncodeResult(res, true)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
