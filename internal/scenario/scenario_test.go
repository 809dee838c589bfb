package scenario

import (
	"testing"
	"testing/quick"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/units"
	"learnability/internal/workload"
)

func twoCubic() []Sender {
	return []Sender{
		{Alg: cubic.New(), Delta: 1},
		{Alg: cubic.New(), Delta: 1},
	}
}

func baseSpec() Spec {
	return Spec{
		Topology:  Dumbbell,
		LinkSpeed: 10 * units.Mbps,
		MinRTT:    100 * units.Millisecond,
		Buffering: FiniteDropTail,
		BufferBDP: 5,
		MeanOn:    units.Second,
		MeanOff:   units.Second,
		Duration:  10 * units.Second,
		Seed:      rng.New(1),
		Senders:   twoCubic(),
	}
}

func TestRunDumbbell(t *testing.T) {
	results := MustRun(baseSpec())
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.MinRTT != 100*units.Millisecond {
			t.Errorf("flow %d MinRTT = %v", r.Flow, r.MinRTT)
		}
		if r.FairShare != 5*units.Mbps {
			t.Errorf("flow %d fair share = %v", r.Flow, r.FairShare)
		}
		if r.Delay < 50*units.Millisecond {
			t.Errorf("flow %d delay %v below propagation", r.Flow, r.Delay)
		}
		if r.Delta != 1 {
			t.Errorf("flow %d delta = %v", r.Flow, r.Delta)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() []Result {
		s := baseSpec()
		s.Seed = rng.New(77)
		s.Senders = twoCubic()
		return MustRun(s)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at flow %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	s1 := baseSpec()
	s1.Seed = rng.New(1)
	s2 := baseSpec()
	s2.Seed = rng.New(2)
	s2.Senders = twoCubic()
	a, b := MustRun(s1), MustRun(s2)
	if a[0].Throughput == b[0].Throughput && a[0].Delay == b[0].Delay {
		t.Fatal("different seeds produced identical results")
	}
}

func TestBufferingKinds(t *testing.T) {
	for _, buf := range []Buffering{FiniteDropTail, NoDrop, SfqCoDel} {
		s := baseSpec()
		s.Buffering = buf
		s.Senders = twoCubic()
		results := MustRun(s)
		if results[0].Throughput <= 0 && results[1].Throughput <= 0 {
			t.Errorf("buffering %v: no traffic", buf)
		}
	}
}

func TestBuildReturnsQueues(t *testing.T) {
	s := baseSpec()
	_, qs, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 {
		t.Fatalf("dumbbell should expose 1 queue, got %d", len(qs))
	}
	if _, ok := qs[0].(*queue.DropTail); !ok {
		t.Fatalf("expected DropTail, got %T", qs[0])
	}
	s.Buffering = SfqCoDel
	s.Senders = twoCubic()
	_, qs, err = Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := qs[0].(*queue.SFQCoDel); !ok {
		t.Fatalf("expected SFQCoDel, got %T", qs[0])
	}
}

func TestBufferFloor(t *testing.T) {
	// Tiny BDP: buffer floors at 2 packets rather than 0.
	s := baseSpec()
	s.LinkSpeed = 500 * units.Kbps
	s.MinRTT = 2 * units.Millisecond
	s.BufferBDP = 1
	s.Senders = twoCubic()
	_, qs, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	dt := qs[0].(*queue.DropTail)
	if dt.Capacity() < 2*1500 {
		t.Fatalf("buffer capacity %d below floor", dt.Capacity())
	}
}

func TestParkingLotSpec(t *testing.T) {
	s := Spec{
		Topology:   ParkingLot,
		LinkSpeed:  10 * units.Mbps,
		LinkSpeeds: []units.Rate{0, 20 * units.Mbps},
		MinRTT:     300 * units.Millisecond,
		Buffering:  FiniteDropTail,
		BufferBDP:  1,
		MeanOn:     units.Second,
		MeanOff:    units.Second,
		Duration:   10 * units.Second,
		Seed:       rng.New(3),
		Senders: []Sender{
			{Alg: newreno.New(), Delta: 1},
			{Alg: newreno.New(), Delta: 1},
			{Alg: newreno.New(), Delta: 1},
		},
	}
	results := MustRun(s)
	if results[0].MinRTT != 300*units.Millisecond {
		t.Fatalf("long flow MinRTT = %v", results[0].MinRTT)
	}
	if results[1].MinRTT != 150*units.Millisecond {
		t.Fatalf("short flow MinRTT = %v", results[1].MinRTT)
	}
	// Fair shares: long flow bounded by the slower link.
	if results[0].FairShare != 5*units.Mbps {
		t.Fatalf("flow 0 fair share = %v", results[0].FairShare)
	}
	if results[2].FairShare != 10*units.Mbps {
		t.Fatalf("flow 2 fair share = %v", results[2].FairShare)
	}
	_, qs, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("parking lot should expose 2 queues, got %d", len(qs))
	}
}

func TestWorkloadOverride(t *testing.T) {
	s := baseSpec()
	s.Senders = []Sender{
		{Alg: cubic.New(), Delta: 1, Workload: workload.AlwaysOn{}},
		{Alg: cubic.New(), Delta: 1, Workload: &workload.Deterministic{InitialOn: false}},
	}
	results := MustRun(s)
	if results[0].OnTime != s.Duration {
		t.Fatalf("always-on flow OnTime = %v, want %v", results[0].OnTime, s.Duration)
	}
	if results[1].OnTime != 0 {
		t.Fatalf("never-on flow OnTime = %v, want 0", results[1].OnTime)
	}
	if results[1].Throughput != 0 {
		t.Fatalf("never-on flow throughput = %v", results[1].Throughput)
	}
}

func TestSpecValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"nil seed":         func(s *Spec) { s.Seed = nil },
		"zero duration":    func(s *Spec) { s.Duration = 0 },
		"sender mismatch":  func(s *Spec) { s.Topology = ParkingLot },
		"no senders":       func(s *Spec) { s.Senders = nil },
		"zero minRTT":      func(s *Spec) { s.MinRTT = 0 },
		"zero link speed":  func(s *Spec) { s.LinkSpeed = 0 },
		"bad buffering":    func(s *Spec) { s.Buffering = Buffering(99) },
		"bad kind":         func(s *Spec) { s.Topology = Topology{Kind: TopologyKind(99)} },
		"zero on mean":     func(s *Spec) { s.MeanOn = 0 },
		"zero off mean":    func(s *Spec) { s.MeanOff = 0 },
		"parking lot 0hop": func(s *Spec) { s.Topology = Topology{Kind: KindParkingLot} },
		"nil graph":        func(s *Spec) { s.Topology = Topology{Kind: KindGraph} },
		"graph no minRTT": func(s *Spec) {
			s.Topology = GraphTopology(dumbbellGraph(s.LinkSpeed, s.MinRTT, len(s.Senders)))
			s.MinRTT = 0 // finite buffers are sized by MinRTT even for graphs
		},
	} {
		s := baseSpec()
		mutate(&s)
		if _, err := Run(s); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// MustRun turns the same spec errors into panics.
	s := baseSpec()
	s.Seed = nil
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRun: expected panic")
			}
		}()
		MustRun(s)
	}()
}

// Property: for random dumbbell scenarios, physics holds — goodput
// never exceeds the link rate (with on/off accounting headroom), and
// delay includes propagation.
func TestPropertyPhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("property test with many simulations")
	}
	f := func(seed uint64, speedRaw, rttRaw uint8) bool {
		speed := units.Rate(1+int(speedRaw)%50) * units.Mbps
		minRTT := units.Duration(10+int(rttRaw)%200) * units.Millisecond
		s := Spec{
			Topology:  Dumbbell,
			LinkSpeed: speed,
			MinRTT:    minRTT,
			Buffering: FiniteDropTail,
			BufferBDP: 3,
			MeanOn:    units.Second,
			MeanOff:   units.Second,
			Duration:  8 * units.Second,
			Seed:      rng.New(seed),
			Senders:   twoCubic(),
		}
		for _, r := range MustRun(s) {
			if r.Delay < minRTT/2 && r.OnTime > 0 {
				return false
			}
			// Aggregate goodput bound with on/off-accounting headroom.
			if float64(r.Throughput) > 3*float64(speed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mixed-algorithm integration test: all four algorithms coexist on one
// bottleneck without stalling each other out completely.
func TestMixedAlgorithms(t *testing.T) {
	s := baseSpec()
	s.Duration = 20 * units.Second
	s.Senders = []Sender{
		{Alg: cubic.New(), Delta: 1},
		{Alg: newreno.New(), Delta: 1},
	}
	results := MustRun(s)
	for _, r := range results {
		if r.Throughput <= 0 {
			t.Fatalf("flow %d starved in mixed network", r.Flow)
		}
	}
}

var _ cc.Algorithm = (*cubic.Cubic)(nil)
