// Binary wire codec for protocol v6.
//
// A frame is a 4-byte big-endian length + payload. Jobs and results
// cross the wire in the binary codec only; a payload opening with '{'
// is a JSON control frame (shardnet's handshake and heartbeats).
// A job's first tree crosses whole and every later one as a canonical
// edit of the tree before it (treeEdit): a hill-climb batch's
// neighbour trees differ in one whisker's action, so a job carries
// about one tree's bytes however many trees it holds.
// Floats cross as explicit little-endian IEEE-754 bits — the same
// discipline as remycc's tree codec — so every float64 (including NaN
// payloads and infinities) survives bit-exactly and the trainer's
// byte-equality proofs keep holding. The JSON job/result encoding
// behind Encode*(x, false) is the codec tests' oracle (codec_test.go
// requires both encodings to decode to the same value); no transport
// selects it, and a worker's job reader, DecodeJobInto, refuses it.
package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"learnability/internal/cc/remycc"
)

// Binary payload magics, little-endian. The leading 'R' guarantees the
// first byte is never '{', so codec sniffing is unambiguous. The digit
// is the protocol version that last changed the frame's layout: v6
// edit-codes a job's trees, and results keep v4's layout.
const (
	jobMagic    = uint32('R') | uint32('J')<<8 | uint32('B')<<16 | uint32('6')<<24
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
	return appendJob(make([]byte, 0, encodedJobSize(job)), job, job.Cfg), nil
}

// encodedJobSize is the exact length of job's binary encoding with its
// config inline.
func encodedJobSize(job *Job) int {
	n := jobHeadSize + 4 + len(job.Cfg) + 4 + 4 + 8*len(job.Reps)
	for i, tree := range job.Trees {
		n += 4 + len(tree)
		if i > 0 {
			pre, suf := treeEdit(job.Trees[i-1], tree)
			n += treeEditHead - pre - suf
		}
	}
	return n
}

// jobHeadSize is the most appendJobHead writes: the magic, ten 8-byte
// fields, the config-hash flag and the hash.
const jobHeadSize = 4 + 10*8 + 1 + sha256.Size

// jobSize bounds the length of job's binary encoding with config blob
// cfg: every tree counted whole, as if no two shared a byte.
func jobSize(job *Job, cfg []byte) int {
	n := jobHeadSize + 4 + len(cfg) + 4 + 4 + 8*len(job.Reps)
	for _, t := range job.Trees {
		n += treeEditHead + 4 + len(t)
	}
	return n
}

// appendJob appends job's binary encoding to b, with cfg in place of
// job.Cfg: a hash-only job is encoded from the caller's job as it is.
func appendJob(b []byte, job *Job, cfg []byte) []byte {
	b = appendJobHead(b, job)
	b = appendBlob(b, cfg)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(job.Trees)))
	for i, tree := range job.Trees {
		if i == 0 {
			b = appendBlob(b, tree)
			continue
		}
		pre, suf := treeEdit(job.Trees[i-1], tree)
		b = appendTreeEditHead(b, pre, suf)
		b = appendBlob(b, tree[pre:len(tree)-suf])
	}
	return appendReps(b, job.Reps)
}

// treeEditHead is the fixed part of an edit-coded tree: its common
// prefix and suffix lengths, before the middle's blob.
const treeEditHead = 4 + 4

// appendTreeEditHead appends an edit's prefix and suffix lengths.
func appendTreeEditHead(b []byte, pre, suf int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(pre))
	return binary.LittleEndian.AppendUint32(b, uint32(suf))
}

// treeEdit returns the canonical edit that turns prev into cur: cur
// keeps prev's first pre and last suf bytes and replaces what lies
// between. pre is the longest common prefix of the two, and suf the
// longest common suffix of what follows it in each, so pre+suf never
// exceeds either length and equal trees edit to (len, 0).
func treeEdit(prev, cur []byte) (pre, suf int) {
	pre = commonPrefix(prev, cur)
	return pre, commonSuffix(prev[pre:], cur[pre:])
}

// editBlock is the run commonPrefix and commonSuffix compare with
// bytes.Equal, whose vector code passes equal bytes faster than a word
// loop, before they look for the first difference word by word.
const editBlock = 128

// commonPrefix is the length of the longest common prefix of a and b.
// Past the equal blocks it compares eight bytes at a time: the first
// differing byte of a word is its XOR's lowest nonzero byte.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i+editBlock <= n && bytes.Equal(a[i:i+editBlock], b[i:i+editBlock]) {
		i += editBlock
	}
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix is commonPrefix from the ends: the last differing byte
// of a word is its XOR's highest nonzero byte.
func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	a, b = a[len(a)-n:], b[len(b)-n:]
	i := 0 // bytes matched from the end
	for i+editBlock <= n && bytes.Equal(a[n-i-editBlock:n-i], b[n-i-editBlock:n-i]) {
		i += editBlock
	}
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[n-i-8:]) ^ binary.LittleEndian.Uint64(b[n-i-8:]); x != 0 {
			return i + bits.LeadingZeros64(x)/8
		}
	}
	for i < n && a[n-1-i] == b[n-1-i] {
		i++
	}
	return i
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
// payload. The fixed fields pass through a small scratch buffer and
// the config streams into the hasher from the job's fields, so a caller
// may change them first (remy's replay key zeroes ID and Workers and
// drops the config for its hash). What follows the config — the trees
// and the replica list — is hashed as it arrived when DecodeJobInto
// decoded the job and its Trees and Reps are still the decoded ones
// (the received bytes are the canonical encoding: the decoder refuses
// any other); otherwise the first tree and each later tree's edited
// middle stream into the hasher where they lie.
func HashJob(job *Job) Hash {
	jh := jobHashers.Get().(*jobHasher)
	h := jh.h
	h.Reset()
	b := appendJobHead(jh.buf[:0], job)
	h.Write(binary.LittleEndian.AppendUint32(b, uint32(len(job.Cfg))))
	h.Write(job.Cfg)
	if job.asReceived() {
		h.Write(job.rx.wire)
	} else {
		h.Write(binary.LittleEndian.AppendUint32(jh.buf[:0], uint32(len(job.Trees))))
		for i, tree := range job.Trees {
			b := jh.buf[:0]
			if i > 0 {
				pre, suf := treeEdit(job.Trees[i-1], tree)
				b = appendTreeEditHead(b, pre, suf)
				tree = tree[pre : len(tree)-suf]
			}
			h.Write(binary.LittleEndian.AppendUint32(b, uint32(len(tree))))
			h.Write(tree)
		}
		h.Write(binary.LittleEndian.AppendUint32(jh.buf[:0], uint32(len(job.Reps))))
		for _, k := range job.Reps {
			h.Write(appendI64(jh.buf[:0], int64(k)))
		}
	}
	var sum Hash
	copy(sum[:], h.Sum(jh.buf[:0]))
	jobHashers.Put(jh)
	return sum
}

// asReceived reports whether the bytes DecodeJobInto kept still encode
// the job's trees and replica list: Trees holds the trees it decoded,
// in place, and Reps the replicas the bytes end with.
func (job *Job) asReceived() bool {
	rx := &job.rx
	if rx.wire == nil || len(job.Trees) != len(rx.trees) || len(rx.wire) != rx.repsAt+4+8*len(job.Reps) {
		return false
	}
	for i, tree := range job.Trees {
		if !sameBytes(tree, rx.trees[i]) {
			return false
		}
	}
	for i, k := range job.Reps {
		if binary.LittleEndian.Uint64(rx.wire[rx.repsAt+4+8*i:]) != uint64(k) {
			return false
		}
	}
	return true
}

// sameBytes reports whether a and b are one view of the same bytes.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// DecodeJob decodes a job payload in either codec into a new Job,
// reporting which codec carried it. The JSON codec is the codec tests'
// oracle: a worker reads jobs with DecodeJobInto, which refuses it. A
// binary job's first tree aliases the payload, and the trees rebuilt
// from edits share one new buffer.
func DecodeJob(payload []byte) (job *Job, jsonCodec bool, err error) {
	job = &Job{}
	if IsJSONPayload(payload) {
		if err := unmarshalJSONFrame(payload, job); err != nil {
			return nil, true, err
		}
		return job, true, nil
	}
	if err := DecodeJobInto(payload, job); err != nil {
		return nil, false, err
	}
	return job, false, nil
}

// DecodeJobInto decodes a binary job payload into job, the only job
// codec a worker's socket reads (a JSON payload fails the magic check).
// It overwrites every field and reuses the storage of job's Trees and
// Reps and of the buffer job keeps for the trees it rebuilds from
// edits, so a reader that decodes each job into the same Job allocates
// nothing once that storage has grown to its largest job. The job's
// rebuilt trees are valid until the next call; its first tree, its
// config and the received bytes HashJob reads until the payload's
// storage is reused. It refuses an edit that is not the canonical one
// (treeEdit), so every job it accepts re-encodes to the payload it
// came from. After an error the job's fields are unspecified.
func DecodeJobInto(payload []byte, job *Job) error {
	*job = Job{Trees: job.Trees[:0], Reps: job.Reps[:0], rx: received{trees: job.rx.trees[:0], tbuf: job.rx.tbuf}}
	c := &cursor{b: payload}
	if m := c.u32("magic"); c.err == nil && m != jobMagic {
		return fmt.Errorf("shard: bad job magic %#x", m)
	}
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
			return fmt.Errorf("shard: cfg_hash flag set on the zero hash")
		}
	default:
		if c.err == nil {
			return fmt.Errorf("shard: bad cfg_hash flag %d", flag)
		}
	}
	job.Cfg = c.blob("cfg")
	wire := c.off
	// Each nested count is bounded by what the remaining bytes could
	// hold at the element's minimum encoded size, so a corrupt count
	// cannot allocate more than the frame it arrived in.
	nTrees := int(c.u32("tree count"))
	if c.err == nil && nTrees > (len(c.b)-c.off)/4 {
		c.fail("tree count")
	}
	if c.err == nil && nTrees > 0 {
		if err := c.trees(nTrees, job); err != nil {
			return err
		}
	}
	repsAt := c.off - wire
	nReps := int(c.u32("replica count"))
	if c.err == nil && nReps > (len(c.b)-c.off)/8 {
		c.fail("replica count")
	}
	if c.err == nil && nReps > 0 {
		job.Reps = slices.Grow(job.Reps, nReps)[:nReps]
		for i := range job.Reps {
			job.Reps[i] = int(c.i64("replica"))
		}
	}
	if err := c.done(); err != nil {
		return err
	}
	job.rx.wire, job.rx.repsAt = payload[wire:], repsAt
	job.rx.trees = append(job.rx.trees, job.Trees...)
	return nil
}

// trees reads a binary job's n trees into job.Trees: the first whole,
// aliasing the payload, and each later one an edit of the tree before
// it, rebuilt into job.rx.tbuf. The rebuilt trees may total at most
// maxFrame bytes — what a frame of whole trees could carry — so a
// short frame of edits cannot make the reader build without bound. An
// edit that keeps more bytes than the previous tree has, or is not the
// canonical one, is refused.
func (c *cursor) trees(n int, job *Job) error {
	trees := slices.Grow(job.Trees[:0], n)[:n]
	clear(trees)
	job.Trees = trees
	first := c.blob("tree")
	trees[0] = first
	buf := job.rx.tbuf[:0]
	defer func() { job.rx.tbuf = buf }()
	// Hill-climb neighbours share the first tree's length: size for
	// that, bounded by the edits the remaining bytes could hold.
	if c.err == nil {
		edits := min(n-1, (len(c.b)-c.off)/(treeEditHead+4))
		buf = slices.Grow(buf, min(edits*len(first), maxFrame))
	}
	total := len(first)
	for i := 1; i < n && c.err == nil; i++ {
		prev := trees[i-1]
		pre, suf := int(c.u32("tree edit prefix")), int(c.u32("tree edit suffix"))
		mid := c.blob("tree edit")
		if c.err != nil {
			break
		}
		if pre < 0 || suf < 0 || pre > len(prev) || suf > len(prev)-pre {
			return fmt.Errorf("shard: tree %d keeps %d+%d bytes of a %d-byte tree", i, pre, suf, len(prev))
		}
		size := pre + len(mid) + suf
		if total += size; total > maxFrame {
			return fmt.Errorf("shard: job's trees exceed %d bytes", maxFrame)
		}
		start := len(buf)
		buf = append(buf, prev[:pre]...)
		buf = append(buf, mid...)
		buf = append(buf, prev[len(prev)-suf:]...)
		cur := buf[start:len(buf):len(buf)]
		// cur matches prev on its first pre and last suf bytes by
		// construction, so the edit is canonical exactly when neither
		// run could go one byte further.
		shorter := min(len(prev), size)
		if pre < shorter && prev[pre] == cur[pre] ||
			suf < shorter-pre && prev[len(prev)-suf-1] == cur[size-suf-1] {
			return fmt.Errorf("shard: tree %d's edit (%d, %d) is not canonical", i, pre, suf)
		}
		trees[i] = cur
	}
	return nil
}

// skip steps over n bytes the caller has bounded by what remains.
func (c *cursor) skip(n int, what string) {
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		c.fail(what)
		return
	}
	c.off += n
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
		if res.stored != nil {
			decoded, err := res.decodeStored()
			if err != nil {
				return nil, err
			}
			res = decoded
		}
		return marshalJSONFrame(res)
	}
	return appendResult(make([]byte, 0, resultSize(res)), res)
}

// StoredResult returns the result whose binary encoding is payload —
// a result an evaluator stored and replays — with Cached set, without
// decoding it. payload must pass CheckResult and must not change
// afterwards. AppendResultFrame and EncodeResult write it through with
// the result's ID and Cached flag stamped in; Result's other fields
// stay empty, so only an encoder (or Pool, which decodes what a
// fallback evaluator returns) may read it.
func StoredResult(payload []byte) *Result {
	return &Result{Cached: true, stored: payload}
}

// decodeStored decodes a stored result's bytes, keeping its ID and
// Cached flag.
func (res *Result) decodeStored() (*Result, error) {
	out, err := DecodeResult(res.stored)
	if err != nil {
		return nil, err
	}
	out.ID, out.Cached = res.ID, res.Cached
	return out, nil
}

// resultSize is the binary encoding's length without usage frames,
// which are rare enough to grow into.
func resultSize(res *Result) int {
	if res.stored != nil {
		return len(res.stored)
	}
	return 4 + 8 + 1 + 4 + len(res.Err) + 4 + 8*len(res.Scores) + 4 + 4 + 8*len(res.Fired)
}

// resultFlags is the flag byte res encodes with.
func resultFlags(res *Result) byte {
	if res.Cached {
		return resultFlagCached
	}
	return 0
}

// appendResult appends res's binary encoding to b: a stored result's
// bytes with its ID and flags stamped over theirs.
func appendResult(b []byte, res *Result) ([]byte, error) {
	if res.stored != nil {
		start := len(b)
		b = append(b, res.stored...)
		binary.LittleEndian.PutUint64(b[start+4:], res.ID)
		b[start+4+8] = resultFlags(res)
		return b, nil
	}
	b = binary.LittleEndian.AppendUint32(b, resultMagic)
	b = binary.LittleEndian.AppendUint64(b, res.ID)
	b = append(b, resultFlags(res))
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
	return checkFired(len(res.Fired), len(res.Scores))
}

// checkFired rejects nFired fired words that do not split evenly over
// nScores slots.
func checkFired(nFired, nScores int) error {
	if nFired > 0 && (nScores == 0 || nFired%nScores != 0) {
		return fmt.Errorf("shard: %d fired words for %d slots", nFired, nScores)
	}
	return nil
}

// DecodeResult decodes a result payload in either codec into a new
// Result.
func DecodeResult(payload []byte) (*Result, error) {
	res := &Result{}
	if IsJSONPayload(payload) {
		if err := unmarshalJSONFrame(payload, res); err != nil {
			return nil, err
		}
		if err := res.check(); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := DecodeResultInto(payload, res); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeResultInto decodes a binary result payload — the only result
// codec a coordinator's socket reads — into res, overwriting every
// field and reusing the storage of its Scores, Fired and usage frames,
// so a reader that decodes each result into the same Result allocates
// nothing once that storage has grown to its largest result (and a
// result with an error, its Err). After an error res's fields are
// unspecified.
func DecodeResultInto(payload []byte, res *Result) error {
	if IsJSONPayload(payload) {
		return fmt.Errorf("shard: a JSON result is not a binary one")
	}
	res.stored = nil
	return walkResult(payload, res)
}

// CheckResult reports whether DecodeResult accepts payload as a binary
// result, reading it in place: it allocates nothing unless it fails.
func CheckResult(payload []byte) error {
	if IsJSONPayload(payload) {
		return fmt.Errorf("shard: a JSON result is not a binary one")
	}
	return walkResult(payload, nil)
}

// walkResult reads a binary result payload into res, reusing its
// storage, or with res nil only checks it: both walks accept and refuse
// the same payloads.
func walkResult(payload []byte, res *Result) error {
	c := cursor{b: payload}
	if m := c.u32("magic"); c.err == nil && m != resultMagic {
		return fmt.Errorf("shard: bad result magic %#x", m)
	}
	id := c.u64("id")
	flags := c.flagByte("flags")
	if flags&^resultFlagsKnown != 0 {
		return fmt.Errorf("shard: unknown result flags %#x", flags)
	}
	errBlob := c.blob("err")
	if res != nil {
		res.ID = id
		res.Cached = flags&resultFlagCached != 0
		res.Err = string(errBlob)
		res.Scores, res.Usage, res.Fired = res.Scores[:0], res.Usage[:0], res.Fired[:0]
	}
	nScores := int(c.u32("score count"))
	if c.err == nil && nScores > (len(c.b)-c.off)/8 {
		c.fail("score count")
	}
	if c.err == nil && nScores > 0 && res != nil {
		res.Scores = slices.Grow(res.Scores, nScores)[:nScores]
		for i := range res.Scores {
			res.Scores[i] = math.Float64frombits(c.u64("score"))
		}
	} else {
		c.skip(8*nScores, "scores")
	}
	nFrames := int(c.u32("usage count"))
	if c.err == nil && nFrames > (len(c.b)-c.off)/usageFrameMinSize {
		c.fail("usage count")
	}
	for i := 0; i < nFrames && c.err == nil; i++ {
		k := int(c.i64("usage k"))
		nw := int(c.u32("whisker count"))
		if c.err == nil && nw > (len(c.b)-c.off)/whiskerSize {
			c.fail("whisker count")
			break
		}
		if res == nil {
			c.skip(nw*whiskerSize, "usage")
			continue
		}
		// The frame takes the storage of the one that stood here last.
		res.Usage = slices.Grow(res.Usage, 1)[:len(res.Usage)+1]
		uf := &res.Usage[len(res.Usage)-1]
		uf.K = k
		uf.Count = slices.Grow(uf.Count[:0], nw)[:nw]
		for j := range uf.Count {
			uf.Count[j] = c.i64("usage counts")
		}
		uf.Sum = slices.Grow(uf.Sum[:0], nw)[:nw]
		for j := range uf.Sum {
			for d := 0; d < remycc.NumSignals; d++ {
				uf.Sum[j][d] = math.Float64frombits(c.u64("usage sums"))
			}
		}
	}
	nFired := int(c.u32("fired count"))
	if c.err == nil && nFired > (len(c.b)-c.off)/8 {
		c.fail("fired count")
	}
	if c.err == nil && nFired > 0 && res != nil {
		res.Fired = slices.Grow(res.Fired, nFired)[:nFired]
		for i := range res.Fired {
			res.Fired[i] = c.u64("fired")
		}
	} else {
		c.skip(8*nFired, "fired")
	}
	if err := c.done(); err != nil {
		return err
	}
	return checkFired(nFired, nScores)
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
