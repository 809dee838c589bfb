package remycc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Stable binary codec for whisker trees. The JSON form (whisker.go) is
// the human-facing interchange format; this codec is the machine-facing
// one: a fixed little-endian layout whose bytes depend only on the
// whisker values, so two trees are behaviorally identical exactly when
// their encodings are byte-equal. The shard trainer uses it both to
// ship candidate trees to worker processes and to assert the headline
// guarantee that sharded training reproduces in-process training
// bit-for-bit (internal/remy's differential tests compare encodings).

// treeMagic identifies a binary-encoded tree ("RTRE" little-endian).
const treeMagic = uint32('R') | uint32('T')<<8 | uint32('R')<<16 | uint32('E')<<24

// treeCodecVersion is bumped whenever the binary layout changes.
// Version 1 carried the paper's four-signal memory; version 2 widened
// whiskers to five signals (ECNFraction). Only the current version is
// decoded: binary trees live between a coordinator and its workers and
// in hash-addressed cache entries, all written by the same build.
// (Four-signal JSON tree files, which users keep, still load — see
// whisker.go.)
const treeCodecVersion = 2

// treeHeaderSize is the fixed prefix: magic, version, whisker count.
const treeHeaderSize = 4 + 4 + 4

// whiskerWireSize is one whisker on the wire: the domain box (Lo and
// Hi vectors) followed by the action triplet, all float64 bits.
const whiskerWireSize = (2*NumSignals + 3) * 8

// MarshalBinary implements encoding.BinaryMarshaler with a
// deterministic layout: header, then per whisker Domain.Lo,
// Domain.Hi, WindowMult, WindowIncr, Intersend as little-endian IEEE
// 754 bits. Equal trees always produce equal bytes.
func (t *Tree) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(make([]byte, 0, treeHeaderSize+len(t.Whiskers)*whiskerWireSize))
}

// AppendBinary implements encoding.BinaryAppender: it appends
// MarshalBinary's encoding of t to b, so a caller that passes back its
// buffer encodes without allocating once the buffer has grown.
func (t *Tree) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, treeHeaderSize+len(t.Whiskers)*whiskerWireSize)
	b = binary.LittleEndian.AppendUint32(b, treeMagic)
	b = binary.LittleEndian.AppendUint32(b, treeCodecVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Whiskers)))
	for i := range t.Whiskers {
		w := &t.Whiskers[i]
		for d := 0; d < NumSignals; d++ {
			b = appendF64(b, w.Domain.Lo[d])
		}
		for d := 0; d < NumSignals; d++ {
			b = appendF64(b, w.Domain.Hi[d])
		}
		b = appendAction(b, w.Action)
	}
	return b, nil
}

// AppendWithAction appends to dst the encoding of the tree whose
// MarshalBinary encoding is enc, with whisker i's action set to a:
// byte for byte WithAction(i, a).MarshalBinary() of that tree, action
// clamped alike, without building the tree. It panics when enc has no
// whisker i, as WithAction does.
func AppendWithAction(dst, enc []byte, i int, a Action) []byte {
	at := treeHeaderSize + i*whiskerWireSize + 2*NumSignals*8
	if i < 0 || at+3*8 > len(enc) {
		panic(fmt.Sprintf("remycc: whisker %d outside a %d-byte tree encoding", i, len(enc)))
	}
	dst = append(dst, enc[:at]...)
	dst = appendAction(dst, a.Clamp())
	return append(dst, enc[at+3*8:]...)
}

// appendAction appends an action triplet's float64 bits.
func appendAction(b []byte, a Action) []byte {
	b = appendF64(b, a.WindowMult)
	b = appendF64(b, a.WindowIncr)
	return appendF64(b, a.Intersend)
}

// appendF64 appends v's IEEE 754 bits, little-endian.
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the layout
// written by MarshalBinary and rebuilds the lookup index. Beyond the
// structure (magic, version, length, NaN-free actions and domains) it
// runs the partition check, as UnmarshalJSON does: a worker looks up
// whiskers in every tree a job ships, and a tree with a hole in it
// would panic there. On error t is left unchanged.
func (t *Tree) UnmarshalBinary(data []byte) error {
	if len(data) < treeHeaderSize {
		return fmt.Errorf("remycc: binary tree truncated (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != treeMagic {
		return fmt.Errorf("remycc: bad tree magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != treeCodecVersion {
		return fmt.Errorf("remycc: unsupported tree codec version %d", v)
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if n == 0 {
		return fmt.Errorf("remycc: binary tree has no whiskers")
	}
	if want := treeHeaderSize + n*whiskerWireSize; len(data) != want {
		return fmt.Errorf("remycc: binary tree is %d bytes, want %d for %d whiskers", len(data), want, n)
	}
	body := data[treeHeaderSize:]
	f := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	whiskers := make([]Whisker, n)
	for i := range whiskers {
		base := i * (2*NumSignals + 3)
		w := &whiskers[i]
		for d := 0; d < NumSignals; d++ {
			w.Domain.Lo[d] = f(base + d)
		}
		for d := 0; d < NumSignals; d++ {
			w.Domain.Hi[d] = f(base + NumSignals + d)
			if math.IsNaN(w.Domain.Lo[d]) || math.IsNaN(w.Domain.Hi[d]) {
				// A NaN edge passes every containment test, so the grid
				// check can accept such a tree, but the lookup index
				// cannot place it.
				return fmt.Errorf("remycc: whisker %d has NaN domain", i)
			}
		}
		w.Action.WindowMult = f(base + 2*NumSignals)
		w.Action.WindowIncr = f(base + 2*NumSignals + 1)
		w.Action.Intersend = f(base + 2*NumSignals + 2)
		if math.IsNaN(w.Action.WindowMult) || math.IsNaN(w.Action.WindowIncr) || math.IsNaN(w.Action.Intersend) {
			return fmt.Errorf("remycc: whisker %d has NaN action", i)
		}
	}
	nt := Tree{Whiskers: whiskers}
	if err := nt.Validate(); err != nil {
		return err
	}
	nt.buildIndex()
	*t = nt
	return nil
}

// DecodeTree decodes a tree written by MarshalBinary.
func DecodeTree(data []byte) (*Tree, error) {
	t := &Tree{}
	if err := t.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return t, nil
}
