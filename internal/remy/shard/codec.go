// Binary wire codec for protocol v5 (the frame layouts of v4).
//
// A frame is a 4-byte big-endian length + payload. Jobs and results
// cross the wire in the binary codec only; a payload opening with '{'
// is a JSON control frame (shardnet's handshake and heartbeats).
// Floats cross as explicit little-endian IEEE-754 bits — the same
// discipline as remycc's tree codec — so every float64 (including NaN
// payloads and infinities) survives bit-exactly and the trainer's
// byte-equality proofs keep holding. The JSON job/result encoding
// behind Encode*(x, false) is the codec tests' oracle (codec_test.go
// requires both encodings to decode to the same value); no transport
// selects it.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
	"sync"

	"learnability/internal/cc/remycc"
)

// Binary payload magics, little-endian. The leading 'R' guarantees the
// first byte is never '{', so codec sniffing is unambiguous. v5 frames
// are v4's, so the magics keep v4's digit; the handshake tells the
// versions apart.
const (
	jobMagic    = uint32('R') | uint32('J')<<8 | uint32('B')<<16 | uint32('4')<<24
	resultMagic = uint32('R') | uint32('R')<<8 | uint32('S')<<16 | uint32('4')<<24
)

// Hash is a SHA-256 content address, used to ship the training config
// once per connection and reference it by hash thereafter.
type Hash [sha256.Size]byte

// HashBytes is the content address of b.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// IsZero reports whether h is the zero (unset) hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// String renders a short prefix for diagnostics.
func (h Hash) String() string { return hex.EncodeToString(h[:6]) }

// MarshalJSON encodes the hash as a hex string ("" for the zero hash)
// so the JSON reference codec stays human-readable.
func (h Hash) MarshalJSON() ([]byte, error) {
	if h.IsZero() {
		return []byte(`""`), nil
	}
	return []byte(`"` + hex.EncodeToString(h[:]) + `"`), nil
}

// UnmarshalJSON decodes the hex form written by MarshalJSON.
func (h *Hash) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("shard: malformed hash %q", b)
	}
	s := b[1 : len(b)-1]
	if len(s) == 0 {
		*h = Hash{}
		return nil
	}
	if len(s) != 2*sha256.Size {
		return fmt.Errorf("shard: hash of %d hex digits", len(s))
	}
	_, err := hex.Decode(h[:], s)
	return err
}

// WritePayload writes one raw frame: the 4-byte big-endian payload
// length followed by the payload, issued as a single Write so frames
// never interleave.
func WritePayload(w io.Writer, payload []byte) error {
	frame := make([]byte, 4+len(payload))
	copy(frame[4:], payload)
	if err := sealFrame(frame, 0); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// sealFrame fills in the length prefix of the frame that opens at
// b[start]: its payload was appended after 4 reserved bytes and runs
// to the end of b.
func sealFrame(b []byte, start int) error {
	n := len(b) - start - 4
	if n > maxFrame {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return nil
}

// readChunk is as much of a frame's declared length as ReadPayload
// allocates before any of it has arrived. A frame no longer is read
// into one buffer of its size; a longer one into a buffer that at most
// doubles what has arrived so far, so a length prefix alone — corrupt,
// or a peer that hangs up — cannot make a reader allocate up to
// maxFrame.
const readChunk = 64 << 10

// ReadPayload reads one frame's payload into a new buffer. It returns
// io.EOF unwrapped when the stream ends cleanly between frames.
func ReadPayload(r io.Reader) ([]byte, error) { return ReadPayloadInto(r, nil) }

// ReadPayloadInto is ReadPayload reading into buf's storage: the
// returned payload is buf resliced when the frame fits its capacity,
// or a grown copy when not, which the caller keeps for the next frame.
// A reader that passes back each payload it got allocates nothing once
// the buffer has grown to its largest frame; the payload is only valid
// until the next call.
func ReadPayloadInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("shard: read frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return nil, fmt.Errorf("shard: frame of %d bytes exceeds limit", n)
	}
	payload := buf[:0]
	if cap(payload) < min(n, readChunk) {
		payload = make([]byte, 0, min(n, readChunk))
	}
	payload = payload[:min(cap(payload), n)]
	got := 0
	for {
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			return nil, fmt.Errorf("shard: read frame payload: %w", err)
		}
		if got = len(payload); got == n {
			return payload, nil
		}
		payload = slices.Grow(payload, min(n-got, got))
		payload = payload[:min(cap(payload), n)]
	}
}

// IsJSONPayload reports whether a frame payload opens a JSON object —
// a control frame on a live connection — rather than a binary magic.
func IsJSONPayload(p []byte) bool { return len(p) > 0 && p[0] == '{' }

// DecodeJSON decodes a JSON frame payload into v — the payload-level
// twin of ReadFrame for transports that sniff codecs themselves.
func DecodeJSON(payload []byte, v any) error { return unmarshalJSONFrame(payload, v) }

// appendI64 appends v little-endian; all binary-codec integers cross
// the wire as 64-bit two's complement for one uniform layout.
func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendBlob appends a u32 length prefix and the bytes.
func appendBlob(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// cursor is a bounds-checked binary-payload reader; the first overrun
// latches err and zero-values every subsequent read.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("shard: truncated binary frame at %s (offset %d of %d)", what, c.off, len(c.b))
	}
}

func (c *cursor) u32(what string) uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64(what string) uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) i64(what string) int64 { return int64(c.u64(what)) }

// blob reads a u32-length-prefixed byte string, returning nil for an
// empty one. The returned slice aliases the payload.
func (c *cursor) blob(what string) []byte {
	n := int(c.u32(what))
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		c.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return p
}

// done errors unless the payload was consumed exactly.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("shard: %d trailing bytes in binary frame", len(c.b)-c.off)
	}
	return nil
}

// EncodeJob renders a job in the binary codec (or the JSON reference
// codec when binaryCodec is false).
func EncodeJob(job *Job, binaryCodec bool) ([]byte, error) {
	if !binaryCodec {
		return marshalJSONFrame(job)
	}
	return appendJob(make([]byte, 0, jobSize(job, job.Cfg)), job, job.Cfg), nil
}

// jobHeadSize is the most appendJobHead writes: the magic, ten 8-byte
// fields, the config-hash flag and the hash.
const jobHeadSize = 4 + 10*8 + 1 + sha256.Size

// jobSize bounds the length of job's binary encoding with config blob
// cfg (exact when CfgHash is set).
func jobSize(job *Job, cfg []byte) int {
	n := jobHeadSize + 4 + len(cfg) + 4 + 4 + 8*len(job.Reps)
	for _, t := range job.Trees {
		n += 4 + len(t)
	}
	return n
}

// appendJob appends job's binary encoding to b, with cfg in place of
// job.Cfg: a hash-only job is encoded from the caller's job as it is.
func appendJob(b []byte, job *Job, cfg []byte) []byte {
	b = appendJobHead(b, job)
	b = appendBlob(b, cfg)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(job.Trees)))
	for _, tree := range job.Trees {
		b = appendBlob(b, tree)
	}
	return appendReps(b, job.Reps)
}

// appendReps appends the replica list that closes a binary job: a u32
// count and one 64-bit integer per replica.
func appendReps(b []byte, reps []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(reps)))
	for _, k := range reps {
		b = appendI64(b, int64(k))
	}
	return b
}

// appendJobHead appends the fixed-size fields that open a binary job:
// everything before the config blob.
func appendJobHead(b []byte, job *Job) []byte {
	b = binary.LittleEndian.AppendUint32(b, jobMagic)
	b = binary.LittleEndian.AppendUint64(b, job.ID)
	b = appendI64(b, int64(job.Version))
	b = binary.LittleEndian.AppendUint64(b, job.Seed)
	b = appendI64(b, int64(job.Gen))
	b = appendI64(b, int64(job.Replicas))
	b = appendI64(b, int64(job.UsageFor))
	b = appendI64(b, int64(job.SlotLo))
	b = appendI64(b, int64(job.SlotHi))
	b = appendI64(b, int64(job.Workers))
	b = appendI64(b, int64(job.TreeLo))
	if job.CfgHash.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return append(b, job.CfgHash[:]...)
}

// jobHasher is a reusable SHA-256 state with scratch for the fixed
// fields, so HashJob allocates nothing in steady state.
type jobHasher struct {
	h   hash.Hash
	buf [jobHeadSize + 4]byte
}

var jobHashers = sync.Pool{New: func() any { return &jobHasher{h: sha256.New()} }}

// HashJob returns sha256(EncodeJob(job, true)) without building the
// payload: the fixed fields pass through a small scratch buffer and
// the config and trees stream into the hasher where they lie.
func HashJob(job *Job) Hash {
	jh := jobHashers.Get().(*jobHasher)
	h := jh.h
	h.Reset()
	b := appendJobHead(jh.buf[:0], job)
	h.Write(binary.LittleEndian.AppendUint32(b, uint32(len(job.Cfg))))
	h.Write(job.Cfg)
	h.Write(binary.LittleEndian.AppendUint32(jh.buf[:0], uint32(len(job.Trees))))
	for _, tree := range job.Trees {
		h.Write(binary.LittleEndian.AppendUint32(jh.buf[:0], uint32(len(tree))))
		h.Write(tree)
	}
	h.Write(binary.LittleEndian.AppendUint32(jh.buf[:0], uint32(len(job.Reps))))
	for _, k := range job.Reps {
		h.Write(appendI64(jh.buf[:0], int64(k)))
	}
	var sum Hash
	copy(sum[:], h.Sum(jh.buf[:0]))
	jobHashers.Put(jh)
	return sum
}

// DecodeJob decodes a job payload in either codec, reporting which one
// carried it so the worker can reply in kind.
func DecodeJob(payload []byte) (job *Job, jsonCodec bool, err error) {
	if IsJSONPayload(payload) {
		job = &Job{}
		return job, true, unmarshalJSONFrame(payload, job)
	}
	c := &cursor{b: payload}
	if m := c.u32("magic"); c.err == nil && m != jobMagic {
		return nil, false, fmt.Errorf("shard: bad job magic %#x", m)
	}
	job = &Job{}
	job.ID = c.u64("id")
	job.Version = int(c.i64("version"))
	job.Seed = c.u64("seed")
	job.Gen = int(c.i64("gen"))
	job.Replicas = int(c.i64("replicas"))
	job.UsageFor = int(c.i64("usage_for"))
	job.SlotLo = int(c.i64("slot_lo"))
	job.SlotHi = int(c.i64("slot_hi"))
	job.Workers = int(c.i64("workers"))
	job.TreeLo = int(c.i64("tree_lo"))
	switch flag := c.flagByte("cfg_hash flag"); flag {
	case 0:
	case 1:
		if c.err == nil && c.off+sha256.Size <= len(c.b) {
			copy(job.CfgHash[:], c.b[c.off:])
			c.off += sha256.Size
		} else {
			c.fail("cfg_hash")
		}
		if c.err == nil && job.CfgHash.IsZero() {
			// The encoder writes flag 0 for the zero hash, so this frame
			// has no canonical form.
			return nil, false, fmt.Errorf("shard: cfg_hash flag set on the zero hash")
		}
	default:
		if c.err == nil {
			return nil, false, fmt.Errorf("shard: bad cfg_hash flag %d", flag)
		}
	}
	job.Cfg = c.blob("cfg")
	// Each nested count is bounded by what the remaining bytes could
	// hold at the element's minimum encoded size, so a corrupt count
	// cannot allocate more than the frame it arrived in.
	nTrees := int(c.u32("tree count"))
	if c.err == nil && nTrees > (len(c.b)-c.off)/4 {
		c.fail("tree count")
	}
	if c.err == nil && nTrees > 0 {
		job.Trees = make([][]byte, nTrees)
		for i := range job.Trees {
			job.Trees[i] = c.blob("tree")
		}
	}
	nReps := int(c.u32("replica count"))
	if c.err == nil && nReps > (len(c.b)-c.off)/8 {
		c.fail("replica count")
	}
	if c.err == nil && nReps > 0 {
		job.Reps = make([]int, nReps)
		for i := range job.Reps {
			job.Reps[i] = int(c.i64("replica"))
		}
	}
	if err := c.done(); err != nil {
		return nil, false, err
	}
	return job, false, nil
}

// flagByte reads the single-byte flag used for optional fields.
func (c *cursor) flagByte(what string) byte {
	if c.err != nil || c.off+1 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// Result flag bits.
const (
	resultFlagCached = 1 << 0
	resultFlagsKnown = resultFlagCached
)

// Minimum encoded sizes of a result's nested elements: a usage frame
// is its replica index plus its whisker count, and a whisker is its
// fire count plus its NumSignals sums.
const (
	usageFrameMinSize = 8 + 4
	whiskerSize       = 8 + 8*remycc.NumSignals
)

// EncodeResult renders a result in the binary codec (or the JSON
// reference codec when binaryCodec is false).
func EncodeResult(res *Result, binaryCodec bool) ([]byte, error) {
	if !binaryCodec {
		return marshalJSONFrame(res)
	}
	return appendResult(make([]byte, 0, resultSize(res)), res)
}

// resultSize is the binary encoding's length without usage frames,
// which are rare enough to grow into.
func resultSize(res *Result) int {
	return 4 + 8 + 1 + 4 + len(res.Err) + 4 + 8*len(res.Scores) + 4 + 4 + 8*len(res.Fired)
}

// appendResult appends res's binary encoding to b.
func appendResult(b []byte, res *Result) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, resultMagic)
	b = binary.LittleEndian.AppendUint64(b, res.ID)
	var flags byte
	if res.Cached {
		flags |= resultFlagCached
	}
	b = append(b, flags)
	b = appendBlob(b, []byte(res.Err))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Scores)))
	for _, s := range res.Scores {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Usage)))
	if err := res.check(); err != nil {
		return nil, err
	}
	for _, uf := range res.Usage {
		b = appendI64(b, int64(uf.K))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(uf.Count)))
		for _, n := range uf.Count {
			b = appendI64(b, n)
		}
		for _, row := range uf.Sum {
			for _, v := range row {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Fired)))
	for _, word := range res.Fired {
		b = binary.LittleEndian.AppendUint64(b, word)
	}
	return b, nil
}

// check rejects a result whose parts disagree: a usage frame with
// sums and counts of different lengths, or fired sets that do not
// split evenly over the slots.
func (res *Result) check() error {
	for _, uf := range res.Usage {
		if len(uf.Sum) != len(uf.Count) {
			return fmt.Errorf("shard: usage frame k=%d has %d sums for %d counts", uf.K, len(uf.Sum), len(uf.Count))
		}
	}
	if n := len(res.Fired); n > 0 && (len(res.Scores) == 0 || n%len(res.Scores) != 0) {
		return fmt.Errorf("shard: %d fired words for %d slots", n, len(res.Scores))
	}
	return nil
}

// DecodeResult decodes a result payload in either codec.
func DecodeResult(payload []byte) (*Result, error) {
	if IsJSONPayload(payload) {
		res := &Result{}
		if err := unmarshalJSONFrame(payload, res); err != nil {
			return nil, err
		}
		if err := res.check(); err != nil {
			return nil, err
		}
		return res, nil
	}
	c := &cursor{b: payload}
	if m := c.u32("magic"); c.err == nil && m != resultMagic {
		return nil, fmt.Errorf("shard: bad result magic %#x", m)
	}
	res := &Result{}
	res.ID = c.u64("id")
	flags := c.flagByte("flags")
	if flags&^resultFlagsKnown != 0 {
		return nil, fmt.Errorf("shard: unknown result flags %#x", flags)
	}
	res.Cached = flags&resultFlagCached != 0
	res.Err = string(c.blob("err"))
	nScores := int(c.u32("score count"))
	if c.err == nil && nScores > (len(c.b)-c.off)/8 {
		c.fail("score count")
	}
	if c.err == nil && nScores > 0 {
		res.Scores = make([]float64, nScores)
		for i := range res.Scores {
			res.Scores[i] = math.Float64frombits(c.u64("score"))
		}
	}
	nFrames := int(c.u32("usage count"))
	if c.err == nil && nFrames > (len(c.b)-c.off)/usageFrameMinSize {
		c.fail("usage count")
	}
	for i := 0; i < nFrames && c.err == nil; i++ {
		uf := UsageFrame{K: int(c.i64("usage k"))}
		nw := int(c.u32("whisker count"))
		if c.err == nil && nw > (len(c.b)-c.off)/whiskerSize {
			c.fail("whisker count")
			break
		}
		if nw > 0 {
			uf.Count = make([]int64, nw)
			for j := range uf.Count {
				uf.Count[j] = c.i64("usage counts")
			}
			uf.Sum = make([][remycc.NumSignals]float64, nw)
			for j := range uf.Sum {
				for d := 0; d < remycc.NumSignals; d++ {
					uf.Sum[j][d] = math.Float64frombits(c.u64("usage sums"))
				}
			}
		}
		res.Usage = append(res.Usage, uf)
	}
	nFired := int(c.u32("fired count"))
	if c.err == nil && nFired > (len(c.b)-c.off)/8 {
		c.fail("fired count")
	}
	if c.err == nil && nFired > 0 {
		res.Fired = make([]uint64, nFired)
		for i := range res.Fired {
			res.Fired[i] = c.u64("fired")
		}
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	if err := res.check(); err != nil {
		return nil, err
	}
	return res, nil
}

// AppendJobFrame appends one length-prefixed binary job frame to b.
// withCfg false leaves the config blob out — a hash-only job, encoded
// without copying the caller's Job. b grows at most once per call, so
// a sender that passes back its buffer allocates only while its jobs
// still grow.
func AppendJobFrame(b []byte, job *Job, withCfg bool) ([]byte, error) {
	var cfg []byte
	if withCfg {
		cfg = job.Cfg
	}
	start := len(b)
	b = append(slices.Grow(b, 4+jobSize(job, cfg)), 0, 0, 0, 0)
	b = appendJob(b, job, cfg)
	if err := sealFrame(b, start); err != nil {
		return b[:start], err
	}
	return b, nil
}

// AppendResultFrame appends one length-prefixed binary result frame to
// b, growing it at most once for a result without usage frames.
func AppendResultFrame(b []byte, res *Result) ([]byte, error) {
	start := len(b)
	frame, err := appendResult(append(slices.Grow(b, 4+resultSize(res)), 0, 0, 0, 0), res)
	if err == nil {
		err = sealFrame(frame, start)
	}
	if err != nil {
		return b, err
	}
	return frame, nil
}
