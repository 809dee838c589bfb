package remycc

import (
	"bytes"
	"math"
	"testing"

	"learnability/internal/rng"
)

// randomTree grows a tree through a few random splits and action
// tweaks, mimicking what the trainer produces.
func randomTree(t testing.TB, r *rng.Stream) *Tree {
	t.Helper()
	tree := NewTree()
	dims := []Signal{RecEWMA, SlowRecEWMA, SendEWMA, RTTRatio}
	for s := 0; s < 3; s++ {
		wi := r.Intn(tree.Len())
		dom := tree.Whiskers[wi].Domain
		var at Vector
		for d := 0; d < NumSignals; d++ {
			at[d] = r.Uniform(dom.Lo[d], dom.Hi[d])
		}
		if nt, ok := tree.Split(wi, at, dims); ok {
			tree = nt
		}
	}
	for i := range tree.Whiskers {
		tree = tree.WithAction(i, Action{
			WindowMult: r.Uniform(MinWindowMult, MaxWindowMult),
			WindowIncr: r.Uniform(MinWindowIncr, MaxWindowIncr),
			Intersend:  r.Uniform(MinIntersend, MaxIntersend),
		})
	}
	return tree
}

func TestTreeBinaryRoundTrip(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		tree := randomTree(t, r)
		enc, err := tree.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		dec, err := DecodeTree(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Len() != tree.Len() {
			t.Fatalf("round trip changed whisker count: %d -> %d", tree.Len(), dec.Len())
		}
		for i := range tree.Whiskers {
			if tree.Whiskers[i] != dec.Whiskers[i] {
				t.Fatalf("whisker %d changed:\n%+v\n%+v", i, tree.Whiskers[i], dec.Whiskers[i])
			}
		}
		// The decoded tree must re-encode to the same bytes (stability)
		// and keep a working lookup index.
		enc2, err := dec.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding a decoded tree changed the bytes")
		}
		for p := 0; p < 50; p++ {
			v := Vector{r.Uniform(0, MaxEWMA), r.Uniform(0, MaxEWMA), r.Uniform(0, MaxEWMA), r.Uniform(MinRatio, MaxRatio)}
			if got, want := dec.Lookup(v), tree.Lookup(v); got != want {
				t.Fatalf("decoded tree lookup(%v) = %d, want %d", v, got, want)
			}
		}
	}
}

func TestTreeBinaryDeterministic(t *testing.T) {
	tree := randomTree(t, rng.New(3))
	a, _ := tree.MarshalBinary()
	b, _ := tree.Clone().MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("equal trees encoded to different bytes")
	}
}

func TestTreeBinaryRejectsGarbage(t *testing.T) {
	good, _ := NewTree().MarshalBinary()

	cases := map[string][]byte{
		"empty":      {},
		"short":      good[:5],
		"bad magic":  append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated":  good[:len(good)-8],
		"extra byte": append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeTree(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}

	badVersion := append([]byte{}, good...)
	badVersion[4] = 99
	if _, err := DecodeTree(badVersion); err == nil {
		t.Error("decode accepted unknown codec version")
	}

	nan := NewTree().WithAction(0, DefaultAction())
	nan.Whiskers[0].Action.WindowIncr = math.NaN()
	enc, _ := nan.MarshalBinary()
	if _, err := DecodeTree(enc); err == nil {
		t.Error("decode accepted NaN action")
	}

	// Trees that are well-formed bytes but no partition: a hole on a
	// grid point (the initial memory vector among the uncovered), and a
	// NaN edge, which every containment test passes but the lookup
	// index cannot place.
	holed := NewTree()
	holed.Whiskers[0].Domain.Lo[ECNFraction] = 0.5
	nanEdge := NewTree()
	nanEdge.Whiskers[0].Domain.Lo[RecEWMA] = math.NaN()
	for name, tree := range map[string]*Tree{"holed": holed, "NaN edge": nanEdge} {
		enc, _ := tree.MarshalBinary()
		var into Tree
		if err := into.UnmarshalBinary(enc); err == nil {
			t.Errorf("%s: decode accepted a tree that is no partition", name)
		} else if into.Whiskers != nil {
			t.Errorf("%s: a failed decode changed the tree", name)
		}
	}
}

// TestAppendWithActionMatchesWithAction holds the encoding patch the
// trainer builds hill-climb candidates with to the trees it stands for:
// over random split trees, every whisker and each of the trainer's 14
// neighbour moves — plus actions outside the bounds, which both sides
// clamp — AppendWithAction's bytes equal WithAction's MarshalBinary,
// and AppendBinary(nil) equals MarshalBinary.
func TestAppendWithActionMatchesWithAction(t *testing.T) {
	r := rng.New(41)
	marshal := func(tree *Tree) []byte {
		b, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var dst []byte
	for trial := 0; trial < 30; trial++ {
		tree := randomTree(t, r)
		if trial%2 == 0 {
			tree = randomSplitTree(r)
		}
		enc := marshal(tree)
		if app, err := tree.AppendBinary(nil); err != nil || !bytes.Equal(app, enc) {
			t.Fatalf("AppendBinary(nil) = %x, %v; MarshalBinary %x", app, err, enc)
		}
		if app, _ := tree.AppendBinary([]byte("prefix")); !bytes.Equal(app, append([]byte("prefix"), enc...)) {
			t.Fatal("AppendBinary does not append to its argument")
		}
		for wi := range tree.Whiskers {
			a := tree.Action(wi)
			var cands []Action
			for _, dm := range []float64{-0.2, -0.05, 0.05, 0.2} {
				n := a
				n.WindowMult += dm
				cands = append(cands, n)
			}
			for _, db := range []float64{-4, -1, 1, 4} {
				n := a
				n.WindowIncr += db
				cands = append(cands, n)
			}
			for _, ft := range []float64{0.25, 0.5, 0.8, 1.25, 2, 4} {
				n := a
				n.Intersend *= ft
				cands = append(cands, n)
			}
			cands = append(cands,
				Action{WindowMult: -1, WindowIncr: 100, Intersend: 0},
				Action{WindowMult: 3, WindowIncr: -100, Intersend: 5},
				Action{WindowMult: math.Inf(1), WindowIncr: math.Inf(-1), Intersend: 1e-9},
			)
			for _, c := range cands {
				want := marshal(tree.WithAction(wi, c))
				dst = AppendWithAction(dst[:0], enc, wi, c)
				if !bytes.Equal(dst, want) {
					t.Fatalf("trial %d, whisker %d, action %+v: AppendWithAction differs from WithAction's encoding", trial, wi, c)
				}
			}
		}
	}
}
