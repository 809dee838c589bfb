package scenario

import (
	"math"
	"testing"
	"testing/quick"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/topo"
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

// TestSpecValidation feeds specs that break each of Build's rules. Each
// must be refused, and Validate, Build and Run must refuse it with the
// same error: there is one rule book for a runnable scenario.
func TestSpecValidation(t *testing.T) {
	slowGraph := dumbbellGraph(units.Mbps, 100*units.Millisecond, 2)
	slowGraph.Edges[0].Rate = 0.1
	for name, mutate := range map[string]func(*Spec){
		"nil seed":         func(s *Spec) { s.Seed = nil },
		"zero duration":    func(s *Spec) { s.Duration = 0 },
		"sender mismatch":  func(s *Spec) { s.Topology = ParkingLot },
		"no senders":       func(s *Spec) { s.Senders = nil },
		"nil controller":   func(s *Spec) { s.Senders[1].Alg = nil },
		"zero minRTT":      func(s *Spec) { s.MinRTT = 0 },
		"zero link speed":  func(s *Spec) { s.LinkSpeed = 0 },
		"bad buffering":    func(s *Spec) { s.Buffering = Buffering(99) },
		"negative buffer":  func(s *Spec) { s.BufferBDP = -1 },
		"NaN buffer":       func(s *Spec) { s.BufferBDP = math.NaN() },
		"infinite buffer":  func(s *Spec) { s.BufferBDP = math.Inf(1) },
		"ECN on NoDrop":    func(s *Spec) { s.ECN, s.Buffering = true, NoDrop },
		"negative mark":    func(s *Spec) { s.ECN, s.ECNThresholdBytes = true, -5 },
		"one-state markov": func(s *Spec) { s.VarRate = VarRate{Kind: VarRateMarkov, Factors: []float64{1}, MeanDwell: 1} },
		"NaN low factor": func(s *Spec) {
			s.VarRate = VarRate{Kind: VarRateOnOff, LowFactor: math.NaN(), MeanHigh: 1, MeanLow: 1}
		},
		"bad kind":         func(s *Spec) { s.Topology = Topology{Kind: TopologyKind(99)} },
		"zero on mean":     func(s *Spec) { s.MeanOn = 0 },
		"zero off mean":    func(s *Spec) { s.MeanOff = 0 },
		"parking lot 0hop": func(s *Spec) { s.Topology = Topology{Kind: KindParkingLot} },
		"parking lot rtt": func(s *Spec) {
			s.Topology, s.Senders, s.MinRTT = ParkingLotN(4, false), s.Senders[:1], 7
		},
		"parking lot rate": func(s *Spec) {
			s.Topology, s.Senders = ParkingLotN(2, false), s.Senders[:1]
			s.LinkSpeed, s.LinkSpeeds = 0, []units.Rate{units.Mbps} // link 1 falls back to 0
		},
		"fat-tree rtt": func(s *Spec) {
			s.Topology, s.MinRTT = FatTreeTopology(2, topo.ECMP), 11
		},
		"nil graph":         func(s *Spec) { s.Topology = Topology{Kind: KindGraph} },
		"too slow to send":  func(s *Spec) { s.LinkSpeed = 0.1 },
		"too fast to time":  func(s *Spec) { s.LinkSpeed = 1e15 },
		"rtt past two days": func(s *Spec) { s.MinRTT = 200000 * units.Second },
		"graph too slow":    func(s *Spec) { s.Topology = GraphTopology(slowGraph) },
		"graph no minRTT": func(s *Spec) {
			s.Topology = GraphTopology(dumbbellGraph(s.LinkSpeed, s.MinRTT, len(s.Senders)))
			s.MinRTT = 0 // finite buffers are sized by MinRTT even for graphs
		},
	} {
		s := baseSpec()
		mutate(&s)
		verr := s.Validate()
		if verr == nil {
			t.Errorf("%s: Validate accepted it", name)
			continue
		}
		_, _, berr := Build(s)
		_, rerr := Run(s)
		if berr == nil || rerr == nil || berr.Error() != verr.Error() || rerr.Error() != verr.Error() {
			t.Errorf("%s: Validate says %v, Build %v, Run %v", name, verr, berr, rerr)
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

// TestValidateAcceptsWhatBuilds holds Validate to Build on specs that
// build: every shape the benchmark evaluates (Figure 2's dumbbell at
// seven speeds; a k=4 fat tree under three routings and a three-hop
// parking lot with cross traffic, over three gateway queues), explicit
// graphs, a NoDrop graph without a MinRTT, and the extremes the rules
// admit. Validate must accept each, and Build and a short Run succeed.
func TestValidateAcceptsWhatBuilds(t *testing.T) {
	var specs []Spec
	for _, mbps := range []float64{1, 3.2, 10, 32, 100, 320, 1000} {
		s := baseSpec()
		s.LinkSpeed, s.MinRTT = units.Rate(mbps*float64(units.Mbps)), 150*units.Millisecond
		specs = append(specs, s)
	}
	for _, q := range []struct {
		buf Buffering
		ecn bool
	}{{FiniteDropTail, false}, {SfqCoDel, false}, {CoDelAQM, true}} {
		tops := []Topology{ParkingLotN(3, true)}
		for _, r := range []topo.RoutingPolicy{topo.ECMP, topo.Spray, topo.Adaptive} {
			tops = append(tops, FatTreeTopology(4, r))
		}
		for _, top := range tops {
			s := baseSpec()
			s.Topology, s.LinkSpeed, s.MinRTT, s.Buffering, s.ECN = top, 32*units.Mbps, 20*units.Millisecond, q.buf, q.ecn
			s.Senders = nil
			for range top.FlowCount(0) {
				s.Senders = append(s.Senders, Sender{Alg: cubic.New(), Delta: 1})
			}
			specs = append(specs, s)
		}
	}
	graph := baseSpec()
	graph.Topology = GraphTopology(dumbbellGraph(graph.LinkSpeed, graph.MinRTT, 2))
	noDropGraph := graph
	noDropGraph.Buffering, noDropGraph.MinRTT = NoDrop, 0
	fixedGraph := graph
	g := dumbbellGraph(graph.LinkSpeed, graph.MinRTT, 2)
	g.Edges[0].Buffer = 4500 // an explicit buffer needs no MinRTT
	fixedGraph.Topology, fixedGraph.MinRTT = GraphTopology(g), 0
	noBuffer := baseSpec()
	noBuffer.BufferBDP = 0
	hugeBuffer := baseSpec()
	hugeBuffer.BufferBDP = 1e300
	aDay := baseSpec()
	aDay.MinRTT = 2 * topo.MaxDelay
	specs = append(specs, graph, noDropGraph, fixedGraph, noBuffer, hugeBuffer, aDay)

	for i, s := range specs {
		s.Duration = 50 * units.Millisecond
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d (%v): Validate: %v", i, s.Topology.Kind, err)
			continue
		}
		if _, _, err := Build(s); err != nil {
			t.Errorf("spec %d (%v): Validate accepted it, Build: %v", i, s.Topology.Kind, err)
		}
		for j := range s.Senders {
			s.Senders[j].Alg = cubic.New()
		}
		if _, err := Run(s); err != nil {
			t.Errorf("spec %d (%v): Validate accepted it, Run: %v", i, s.Topology.Kind, err)
		}
	}
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
