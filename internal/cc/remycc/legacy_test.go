package remycc

// Back-compat tests for trees written before the ECNFraction signal:
// four-dimension JSON (4-element domain corners) must decode into a
// valid five-signal partition with the missing dimension widened to
// the full ECN domain; four-dimension binary payloads (codec version
// 1) are refused, since nothing that writes them can reach this build.

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestBinaryCodecV1LengthValidation hand-builds codec version-1
// payloads — the layout MarshalBinary writes, but with four-dimension
// domain corners — and requires that no length of one validates: sized
// for its own four-signal whiskers or padded to the five-signal size,
// the version check refuses it rather than misreading the whiskers.
func TestBinaryCodecV1LengthValidation(t *testing.T) {
	const v1Signals = 4
	payload := binary.LittleEndian.AppendUint32(nil, treeMagic)
	payload = binary.LittleEndian.AppendUint32(payload, 1)
	payload = binary.LittleEndian.AppendUint32(payload, 1) // one whisker
	for _, v := range [2*v1Signals + 3]float64{
		0, 0, 0, MinRatio, // lo
		MaxEWMA, MaxEWMA, MaxEWMA, MaxRatio, // hi
		1, 1, 0.001, // action
	} {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
	}
	// Padded to the size a one-whisker v2 payload would have.
	padded := append(append([]byte{}, payload...), make([]byte, 16)...)
	if len(padded) != treeHeaderSize+whiskerWireSize {
		t.Fatalf("padded v1 payload is %d bytes, want the v2 size %d", len(padded), treeHeaderSize+whiskerWireSize)
	}
	for name, p := range map[string][]byte{"v1-sized": payload, "v2-sized": padded} {
		_, err := DecodeTree(p)
		if err == nil || !strings.Contains(err.Error(), "unsupported tree codec version 1") {
			t.Errorf("%s: DecodeTree = %v, want the unsupported-version error", name, err)
		}
	}
}

func TestJSONDecodesLegacyFourDimTree(t *testing.T) {
	// Pre-ECN JSON carries 4-element lo/hi arrays; they decode into the
	// five-signal Vector with the trailing dimension as the impossible
	// zero-width [0, 0], which UnmarshalJSON widens to the full domain.
	legacy := `{"whiskers": [
		{"domain": {"lo": [0, 0, 0, 1], "hi": [0.1, 1, 1, 16]},
		 "action": {"window_mult": 1, "window_incr": 1, "intersend": 0.001}},
		{"domain": {"lo": [0.1, 0, 0, 1], "hi": [1, 1, 1, 16]},
		 "action": {"window_mult": 0.7, "window_incr": -2, "intersend": 0.02}}
	]}`
	var tree Tree
	if err := json.Unmarshal([]byte(legacy), &tree); err != nil {
		t.Fatalf("decode legacy JSON: %v", err)
	}
	for i, w := range tree.Whiskers {
		if w.Domain.Lo[ECNFraction] != 0 || w.Domain.Hi[ECNFraction] != MaxECNFrac {
			t.Fatalf("whisker %d: ECN dimension [%v, %v), want full domain",
				i, w.Domain.Lo[ECNFraction], w.Domain.Hi[ECNFraction])
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("widened JSON tree is not a valid partition: %v", err)
	}
}
