package remycc

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"learnability/internal/rng"
)

// fuzzSeedTrees are the fuzzers' seed trees: the initial tree, the
// codec tests' random trees and the committed 46-whisker Tao (a copy of
// the benchmark's, so that the benchmark's own file stays untouched).
func fuzzSeedTrees(f *testing.F) []*Tree {
	trees := []*Tree{NewTree()}
	r := rng.New(11)
	for i := 0; i < 4; i++ {
		trees = append(trees, randomTree(f, r))
	}
	data, err := os.ReadFile("testdata/tao-dumbbell.json")
	if err != nil {
		f.Fatal(err)
	}
	var tao Tree
	if err := json.Unmarshal(data, &tao); err != nil {
		f.Fatalf("testdata/tao-dumbbell.json: %v", err)
	}
	return append(trees, &tao)
}

// FuzzTreeBinary feeds arbitrary bytes to the binary tree decoder: it
// must never panic, a tree it accepts must pass the partition check,
// and encoding that tree must give back the input bytes.
func FuzzTreeBinary(f *testing.F) {
	for _, tree := range fuzzSeedTrees(f) {
		b, err := tree.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := DecodeTree(data)
		if err != nil {
			return
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("decoder accepted a tree that fails Validate: %v", err)
		}
		back, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted tree re-encodes to other bytes:\nin  %x\nout %x", data, back)
		}
	})
}

// FuzzTreeJSON feeds arbitrary bytes to the JSON tree decoder: it must
// never panic, a tree it accepts must pass the partition check, and
// that tree must survive an encode/decode round trip whisker for
// whisker.
func FuzzTreeJSON(f *testing.F) {
	for _, tree := range fuzzSeedTrees(f) {
		b, err := json.Marshal(tree)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tree Tree
		if err := json.Unmarshal(data, &tree); err != nil {
			return
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("decoder accepted a tree that fails Validate: %v", err)
		}
		b, err := json.Marshal(&tree)
		if err != nil {
			t.Fatal(err)
		}
		var back Tree
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decoding an accepted tree: %v", err)
		}
		if len(back.Whiskers) != len(tree.Whiskers) {
			t.Fatalf("round trip changed the whisker count: %d -> %d", len(tree.Whiskers), len(back.Whiskers))
		}
		for i := range tree.Whiskers {
			if back.Whiskers[i] != tree.Whiskers[i] {
				t.Fatalf("whisker %d changed in a round trip:\n%+v\n%+v", i, tree.Whiskers[i], back.Whiskers[i])
			}
		}
	})
}

// TestDecodeRejectsSubGridHole decodes FuzzTreeBinary's committed
// sub-grid-hole seed: two whiskers split along the first signal, the
// upper one starting at 0.21 where the lower one ends at 0.2, so the
// slab between them, strictly between two points of an 8-point grid,
// lies in no whisker. A sampling partition check accepts the tree; the
// decoder must reject it and name a point of the slab.
func TestDecodeRejectsSubGridHole(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzTreeBinary/subgrid-hole")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("unexpected corpus file:\n%s", raw)
	}
	lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	lower, upper := FullDomain(), FullDomain()
	lower.Hi[0], upper.Lo[0] = 0.2, 0.21
	holed := &Tree{Whiskers: []Whisker{{Domain: lower, Action: DefaultAction()}, {Domain: upper, Action: DefaultAction()}}}
	if want, _ := holed.MarshalBinary(); !bytes.Equal([]byte(lit), want) {
		t.Fatal("the committed seed is not the holed tree's encoding")
	}
	if gridWalkValidate(holed, coarseGrid()) != nil {
		t.Fatal("the coarse grid walk sees the hole; the seed does not test what it is for")
	}
	_, err = DecodeTree([]byte(lit))
	if want := "remycc: point [0.2 0 0 1 0] contained in 0 whiskers"; errString(err) != want {
		t.Fatalf("DecodeTree = %v, want %s", err, want)
	}
}
