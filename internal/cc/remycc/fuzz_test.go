package remycc

import (
	"bytes"
	"encoding/json"
	"os"
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
