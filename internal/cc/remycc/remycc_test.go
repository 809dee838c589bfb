package remycc

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"learnability/internal/cc"
	"learnability/internal/rng"
	"learnability/internal/units"
)

// newMemory is the memory a fresh controller observes through: that of
// a NewMasked controller on the one-whisker tree.
func newMemory(mask SignalMask) *Memory { return &NewMasked(NewTree(), mask).memory }

func TestMemorySignalUpdates(t *testing.T) {
	m := newMemory(AllSignals())
	m.Observe(cc.Feedback{
		RTT: 150 * units.Millisecond, MinRTT: 100 * units.Millisecond,
		SentAt: 0, ReceivedAt: units.Time(75 * units.Millisecond),
	})
	v := m.Vector()
	if v[RecEWMA] != 0 || v[SendEWMA] != 0 {
		t.Fatalf("EWMAs should be 0 after one sample (no interarrival yet): %v", v)
	}
	if d := v[RTTRatio] - 1.5; d > 1e-9 || d < -1e-9 {
		t.Fatalf("ratio = %v, want 1.5", v[RTTRatio])
	}
	m.Observe(cc.Feedback{
		RTT: 200 * units.Millisecond, MinRTT: 100 * units.Millisecond,
		SentAt:     units.Time(10 * units.Millisecond),
		ReceivedAt: units.Time(95 * units.Millisecond),
	})
	v = m.Vector()
	// First interarrival sample sets the EWMA directly: 20 ms recv,
	// 10 ms send.
	if v[RecEWMA] != 0.020 || v[SlowRecEWMA] != 0.020 {
		t.Fatalf("rec ewmas = %v/%v, want 0.020", v[RecEWMA], v[SlowRecEWMA])
	}
	if v[SendEWMA] != 0.010 {
		t.Fatalf("send ewma = %v, want 0.010", v[SendEWMA])
	}
	if v[RTTRatio] != 2.0 {
		t.Fatalf("ratio = %v, want 2.0", v[RTTRatio])
	}
}

func TestMemoryGains(t *testing.T) {
	m := newMemory(AllSignals())
	// Two interarrivals: 10 ms then 90 ms. rec gain 1/8, slow 1/256.
	times := []units.Time{0, units.Time(10 * units.Millisecond), units.Time(100 * units.Millisecond)}
	for _, at := range times {
		m.Observe(cc.Feedback{RTT: units.Millisecond, MinRTT: units.Millisecond, ReceivedAt: at, SentAt: at})
	}
	v := m.Vector()
	wantRec := 0.010 + (0.090-0.010)/8
	wantSlow := 0.010 + (0.090-0.010)/256
	if diff := v[RecEWMA] - wantRec; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("rec = %v, want %v", v[RecEWMA], wantRec)
	}
	if diff := v[SlowRecEWMA] - wantSlow; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("slow = %v, want %v", v[SlowRecEWMA], wantSlow)
	}
}

func TestMemoryMask(t *testing.T) {
	mask := AllSignals().Without(RecEWMA).Without(RTTRatio)
	m := newMemory(mask)
	for i := 0; i < 5; i++ {
		at := units.Time(i) * units.Time(20*units.Millisecond)
		m.Observe(cc.Feedback{RTT: 500 * units.Millisecond, MinRTT: 100 * units.Millisecond, ReceivedAt: at, SentAt: at})
	}
	v := m.Vector()
	if v[RecEWMA] != 0 {
		t.Fatalf("masked rec_ewma moved: %v", v[RecEWMA])
	}
	if v[RTTRatio] != MinRatio {
		t.Fatalf("masked rtt_ratio moved: %v", v[RTTRatio])
	}
	if v[SlowRecEWMA] == 0 || v[SendEWMA] == 0 {
		t.Fatal("unmasked signals did not move")
	}
}

func TestVectorClamp(t *testing.T) {
	v := Vector{-1, 99, 0.5, 0.1}.Clamp()
	want := Vector{0, MaxEWMA, 0.5, MinRatio}
	if v != want {
		t.Fatalf("Clamp = %v, want %v", v, want)
	}
}

func TestInitialTreeCoversDomain(t *testing.T) {
	tr := NewTree()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Lookup(InitialVector()) != 0 {
		t.Fatal("initial vector not in whisker 0")
	}
}

func TestSplitPreservesPartition(t *testing.T) {
	tr := NewTree()
	mid := Vector{0.5, 0.5, 0.5, 8}
	tr2, ok := tr.Split(0, mid, []Signal{RecEWMA, SlowRecEWMA, SendEWMA, RTTRatio})
	if !ok {
		t.Fatal("split failed")
	}
	if tr2.Len() != 16 {
		t.Fatalf("Len = %d, want 16 after 4-dim split", tr2.Len())
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Original unchanged.
	if tr.Len() != 1 {
		t.Fatal("Split mutated the original tree")
	}
}

func TestSplitSkipsDegenerateCuts(t *testing.T) {
	tr := NewTree()
	// Cut at the exact domain edge in every dimension: no split.
	edge := Vector{0, 0, 0, MinRatio}
	_, ok := tr.Split(0, edge, []Signal{RecEWMA, SlowRecEWMA, SendEWMA, RTTRatio})
	if ok {
		t.Fatal("degenerate split reported ok")
	}
}

func TestSplitSingleDim(t *testing.T) {
	tr := NewTree()
	tr2, ok := tr.Split(0, Vector{0.25, 0, 0, 0}, []Signal{RecEWMA})
	if !ok || tr2.Len() != 2 {
		t.Fatalf("single-dim split: ok=%v len=%d", ok, tr2.Len())
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
	lo := tr2.Lookup(Vector{0.1, 0.5, 0.5, 4})
	hi := tr2.Lookup(Vector{0.9, 0.5, 0.5, 4})
	if lo == hi {
		t.Fatal("points on either side of the cut map to the same whisker")
	}
}

// Property: after random splits, every point still maps to exactly one
// whisker.
func TestPropertyLookupTotal(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tr := NewTree()
		for s := 0; s < 4; s++ {
			i := r.Intn(tr.Len())
			at := Vector{r.Float64(), r.Float64(), r.Float64(), 1 + 15*r.Float64()}
			dims := []Signal{Signal(r.Intn(NumSignals))}
			tr, _ = tr.Split(i, at, dims)
		}
		for k := 0; k < 200; k++ {
			v := Vector{r.Float64() * 1.2, r.Float64() * 1.2, r.Float64() * 1.2, 17 * r.Float64()}
			n := 0
			cv := v.Clamp()
			for i := range tr.Whiskers {
				if tr.Whiskers[i].Domain.Contains(cv) {
					n++
				}
			}
			if n != 1 {
				return false
			}
			tr.Lookup(v) // must not panic
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWithAction(t *testing.T) {
	tr := NewTree()
	a := Action{WindowMult: 0.5, WindowIncr: 3, Intersend: 0.01}
	tr2 := tr.WithAction(0, a)
	if tr2.Action(0) != a {
		t.Fatalf("WithAction = %+v", tr2.Action(0))
	}
	if tr.Action(0) == a {
		t.Fatal("WithAction mutated original")
	}
	// Clamping applies.
	tr3 := tr.WithAction(0, Action{WindowMult: 99, WindowIncr: -99, Intersend: 99})
	got := tr3.Action(0)
	if got.WindowMult != MaxWindowMult || got.WindowIncr != MinWindowIncr || got.Intersend != MaxIntersend {
		t.Fatalf("clamped action = %+v", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := NewTree()
	tr, _ = tr.Split(0, Vector{0.3, 0.3, 0.3, 4}, []Signal{RecEWMA, RTTRatio})
	tr = tr.WithAction(1, Action{WindowMult: 0.7, WindowIncr: 2, Intersend: 0.005})
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round-trip Len = %d, want %d", back.Len(), tr.Len())
	}
	for i := range tr.Whiskers {
		if back.Whiskers[i] != tr.Whiskers[i] {
			t.Fatalf("whisker %d: %+v != %+v", i, back.Whiskers[i], tr.Whiskers[i])
		}
	}
}

func TestJSONRejectsBrokenTree(t *testing.T) {
	// Two whiskers covering the same space: partition violated.
	bad := `{"whiskers":[
	  {"domain":{"lo":[0,0,0,1],"hi":[1,1,1,16]},"action":{"window_mult":1,"window_incr":1,"intersend":0.001}},
	  {"domain":{"lo":[0,0,0,1],"hi":[1,1,1,16]},"action":{"window_mult":1,"window_incr":1,"intersend":0.001}}]}`
	var tr Tree
	if err := json.Unmarshal([]byte(bad), &tr); err == nil {
		t.Fatal("expected validation error for overlapping whiskers")
	}
}

func TestRemyCCAppliesAction(t *testing.T) {
	tr := NewTree().WithAction(0, Action{WindowMult: 1.5, WindowIncr: 2, Intersend: 0.004})
	r := New(tr)
	w0 := r.Window()
	r.OnACK(0, cc.Feedback{RTT: 100 * units.Millisecond, MinRTT: 100 * units.Millisecond, NewlyAcked: 1})
	if got, want := r.Window(), 1.5*w0+2; got != want {
		t.Fatalf("Window = %v, want %v", got, want)
	}
	if r.PacingInterval() != 4*units.Millisecond {
		t.Fatalf("PacingInterval = %v, want 4ms", r.PacingInterval())
	}
}

func TestRemyCCIgnoresLoss(t *testing.T) {
	r := New(NewTree())
	r.OnACK(0, cc.Feedback{RTT: units.Millisecond, MinRTT: units.Millisecond, NewlyAcked: 1})
	w := r.Window()
	r.OnLoss(0)
	r.OnTimeout(0)
	if r.Window() != w {
		t.Fatal("Tao protocol reacted to loss")
	}
}

func TestRemyCCWindowBounds(t *testing.T) {
	shrink := NewTree().WithAction(0, Action{WindowMult: 0, WindowIncr: MinWindowIncr, Intersend: 0.001})
	r := New(shrink)
	for i := 0; i < 10; i++ {
		r.OnACK(0, cc.Feedback{RTT: units.Millisecond, MinRTT: units.Millisecond, NewlyAcked: 1})
	}
	if r.Window() < 0 {
		t.Fatalf("window went negative: %v", r.Window())
	}
	grow := NewTree().WithAction(0, Action{WindowMult: 2, WindowIncr: 32, Intersend: 0.001})
	r = New(grow)
	for i := 0; i < 100; i++ {
		r.OnACK(0, cc.Feedback{RTT: units.Millisecond, MinRTT: units.Millisecond, NewlyAcked: 1})
	}
	if r.Window() > maxWindow {
		t.Fatalf("window exceeded cap: %v", r.Window())
	}
}

func TestRemyCCReset(t *testing.T) {
	r := New(NewTree())
	for i := 0; i < 5; i++ {
		r.OnACK(0, cc.Feedback{RTT: units.Millisecond, MinRTT: units.Millisecond, NewlyAcked: 1,
			ReceivedAt: units.Time(i) * units.Time(units.Millisecond)})
	}
	r.Reset(0)
	if r.Window() != initialWindow {
		t.Fatalf("window after Reset = %v", r.Window())
	}
	if r.memory.Vector() != InitialVector() {
		t.Fatalf("memory after Reset = %v", r.memory.Vector())
	}
}

// TestResetWhiskerIsWhatResetReads holds Tree.ResetWhisker to the
// memory point RemyCC.Reset starts from, under every single-signal
// knockout mask and after history: the trainer treats that whisker's
// action as read on every run, fired or not, and a reset point that
// drifted from InitialVector would make it skip slots it must run.
func TestResetWhiskerIsWhatResetReads(t *testing.T) {
	tr := NewTree()
	tr, _ = tr.Split(0, Vector{0.01, 0.02, 0.03, 2, 0.5}, []Signal{RecEWMA, RTTRatio, ECNFraction})
	masks := []SignalMask{AllSignals()}
	for s := Signal(0); s < NumSignals; s++ {
		masks = append(masks, AllSignals().Without(s))
	}
	for _, mask := range masks {
		m := newMemory(mask)
		for i := 0; i < 5; i++ {
			at := units.Time(i) * units.Time(7*units.Millisecond)
			m.Observe(cc.Feedback{RTT: 300 * units.Millisecond, MinRTT: 100 * units.Millisecond,
				ReceivedAt: at, SentAt: at, ECNEcho: true})
		}
		m.Reset()
		if m.Vector() != InitialVector() {
			t.Fatalf("mask %v: memory after Reset = %v, want InitialVector", mask, m.Vector())
		}
		r := NewMasked(tr, mask)
		r.OnACK(0, cc.Feedback{RTT: 900 * units.Millisecond, MinRTT: 100 * units.Millisecond, NewlyAcked: 1})
		r.Reset(0)
		if got, want := r.lastWhisker, tr.ResetWhisker(); got != want {
			t.Fatalf("mask %v: Reset started from whisker %d, ResetWhisker says %d", mask, got, want)
		}
	}
}

func TestRemyCCUsageRecording(t *testing.T) {
	tr := NewTree()
	tr, _ = tr.Split(0, Vector{0, 0, 0, 2}, []Signal{RTTRatio})
	r := New(tr)
	u := NewUsageStats(tr.Len())
	r.RecordUsage(u)
	// Low-ratio ACK, then high-ratio ACK.
	r.OnACK(0, cc.Feedback{RTT: 100 * units.Millisecond, MinRTT: 100 * units.Millisecond, NewlyAcked: 1})
	r.OnACK(0, cc.Feedback{RTT: 500 * units.Millisecond, MinRTT: 100 * units.Millisecond, NewlyAcked: 1})
	total := int64(0)
	nonzero := 0
	for _, c := range u.Count {
		total += c
		if c > 0 {
			nonzero++
		}
	}
	if total != 2 || nonzero != 2 {
		t.Fatalf("usage counts = %v", u.Count)
	}
}

func TestUsageStatsMergeAndMean(t *testing.T) {
	a, b := NewUsageStats(2), NewUsageStats(2)
	a.Count[0] = 2
	a.Sum[0] = [NumSignals]float64{2, 4, 6, 8}
	b.Count[0] = 2
	b.Sum[0] = [NumSignals]float64{6, 4, 2, 0}
	a.Merge(b)
	if a.Count[0] != 4 {
		t.Fatalf("merged count = %d", a.Count[0])
	}
	mean := a.Mean(0)
	if mean != (Vector{2, 2, 2, 2}) {
		t.Fatalf("mean = %v", mean)
	}
	if a.MostUsed() != 0 {
		t.Fatalf("MostUsed = %d", a.MostUsed())
	}
	empty := NewUsageStats(3)
	if empty.MostUsed() != -1 {
		t.Fatal("MostUsed on empty should be -1")
	}
	if empty.Mean(1) != (Vector{}) {
		t.Fatal("Mean of unused whisker should be zero")
	}
}
