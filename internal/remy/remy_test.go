package remy

import (
	"math"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// tinyConfig is a fast training distribution for tests: a narrow
// dumbbell around 8 Mbps with 2 senders.
func tinyConfig() Config {
	return Config{
		Topology:     scenario.Dumbbell,
		LinkSpeedMin: 7 * units.Mbps,
		LinkSpeedMax: 9 * units.Mbps,
		MinRTTMin:    100 * units.Millisecond,
		MinRTTMax:    100 * units.Millisecond,
		SendersMin:   2,
		SendersMax:   2,
		MeanOn:       units.Second,
		MeanOff:      units.Second,
		Buffering:    scenario.FiniteDropTail,
		BufferBDP:    5,
		Delta:        1,
		Mask:         remycc.AllSignals(),
		Duration:     10 * units.Second,
		Replicas:     2,
	}
}

func TestTrainingImprovesObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tr := &Trainer{Cfg: tinyConfig(), Seed: 1}
	cfg := tr.Cfg.normalize()
	baseline, _ := tr.evaluate(&cfg, remycc.NewTree(), 0)
	trained := tr.Train(Budget{Generations: 1, OptPasses: 1, MovesPerWhisker: 4})
	final, _ := tr.evaluate(&cfg, trained, 0)
	if final < baseline {
		t.Fatalf("training regressed the objective: %.4f -> %.4f", baseline, final)
	}
	if trained.Len() < 1 {
		t.Fatal("empty trained tree")
	}
	if err := trained.Validate(); err != nil {
		t.Fatalf("trained tree invalid: %v", err)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	b := Budget{Generations: 1, OptPasses: 1, MovesPerWhisker: 2}
	t1 := (&Trainer{Cfg: tinyConfig(), Seed: 7, Workers: 4}).Train(b)
	t2 := (&Trainer{Cfg: tinyConfig(), Seed: 7, Workers: 4}).Train(b)
	if t1.Len() != t2.Len() {
		t.Fatalf("tree sizes differ: %d vs %d", t1.Len(), t2.Len())
	}
	for i := range t1.Whiskers {
		if t1.Whiskers[i] != t2.Whiskers[i] {
			t.Fatalf("whisker %d differs:\n%+v\n%+v", i, t1.Whiskers[i], t2.Whiskers[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	pl := tinyConfig()
	pl.Topology = scenario.ParkingLotN(3, true)
	pl.SendersMin, pl.SendersMax = 0, 0
	if err := pl.Validate(); err != nil {
		t.Fatalf("valid parking-lot config rejected: %v", err)
	}
	// A worker validates the normalized config a job ships; it must
	// pass wherever the original did.
	ft := pl
	ft.Topology = scenario.FatTreeTopology(4, topo.Spray)
	partner := tinyConfig()
	partner.Other = remycc.NewTree()
	partner.OtherCountMin, partner.OtherCountMax = 0, 3
	for _, c := range []Config{good, pl, ft, partner} {
		if n := c.normalize(); n.Validate() != nil {
			t.Fatalf("normalized %v config rejected: %v", c.Topology.Kind, n.Validate())
		}
	}
	for name, mutate := range map[string]func(*Config){
		"zero hops":     func(c *Config) { c.Topology = scenario.Topology{Kind: scenario.KindParkingLot} },
		"nil graph":     func(c *Config) { c.Topology = scenario.Topology{Kind: scenario.KindGraph} },
		"bad kind":      func(c *Config) { c.Topology = scenario.Topology{Kind: scenario.TopologyKind(99)} },
		"zero speed":    func(c *Config) { c.LinkSpeedMin, c.LinkSpeedMax = 0, 0 },
		"zero rtt":      func(c *Config) { c.MinRTTMin, c.MinRTTMax = 0, 0 },
		"bad aimd":      func(c *Config) { c.AIMDProb = 1.5 },
		"zero means":    func(c *Config) { c.MeanOn = 0 },
		"bad buffering": func(c *Config) { c.Buffering = scenario.Buffering(7) },
		"partner-on-lot": func(c *Config) {
			c.Topology = scenario.ParkingLot
			c.SendersMin, c.SendersMax = 0, 0
			c.Other = remycc.NewTree()
			c.OtherCountMax = 1
		},
		"rtt-under-hops": func(c *Config) {
			c.Topology = scenario.ParkingLotN(3, true)
			c.SendersMin, c.SendersMax = 0, 0
			c.MinRTTMin = 4
			c.MinRTTMax = 4
		},
		"sender-mismatch": func(c *Config) { c.Topology = scenario.ParkingLotN(3, true); c.SendersMax = 10 },
		"graph-finite-buffer-no-rtt": func(c *Config) {
			c.Topology = scenario.GraphTopology(&topo.Graph{
				Edges:  []topo.Edge{{Rate: units.Mbps, Prop: units.Millisecond}},
				Routes: []topo.Route{{Links: []int{0}}, {Links: []int{0}}},
			})
			c.SendersMin, c.SendersMax = 0, 0
			c.MinRTTMin, c.MinRTTMax = 0, 0 // finite buffering still needs MinRTT
		},
		// The worker crashers in testdata/fuzz/FuzzShardConfig: each
		// passed Validate and then panicked in scenario.MustRun or
		// rng.IntRange.
		"negative ecn threshold": func(c *Config) { c.ECN = true; c.ECNThresholdBytes = -5 },
		"partner counts inverted": func(c *Config) {
			c.Other = remycc.NewTree()
			c.OtherCountMin, c.OtherCountMax = 5, 2
		},
		"link too slow to serialize": func(c *Config) { c.LinkSpeedMin, c.LinkSpeedMax = 0.1, 0.1 },
		"min rtt past a day":         func(c *Config) { c.MinRTTMin, c.MinRTTMax = 200000*units.Second, 200000*units.Second },
		// Only one corner of the range fails: each must be checked.
		"slowest link too slow":  func(c *Config) { c.LinkSpeedMin = 0.1 },
		"longest rtt past a day": func(c *Config) { c.MinRTTMax = 200000 * units.Second },
		"fastest link too fast":  func(c *Config) { c.LinkSpeedMax = 1e15 },
		"negative partner counts": func(c *Config) {
			c.Other = remycc.NewTree()
			c.OtherCountMin, c.OtherCountMax = -3, -1
		},
		"negative partner minimum": func(c *Config) {
			c.Other = remycc.NewTree()
			c.OtherCountMin, c.OtherCountMax = -1, 2
		},
		"negative buffer": func(c *Config) { c.BufferBDP = -1 },
		"nan aimd":        func(c *Config) { c.AIMDProb = math.NaN() },
		"ecn on no-drop":  func(c *Config) { c.ECN = true; c.Buffering = scenario.NoDrop },
		"zero off mean":   func(c *Config) { c.MeanOff = 0 },
		"bad varrate":     func(c *Config) { c.VarRate = scenario.VarRate{Kind: scenario.VarRateMarkov, Factors: []float64{1}} },
		"fat tree rtt": func(c *Config) {
			c.Topology = scenario.FatTreeTopology(4, topo.ECMP)
			c.SendersMin, c.SendersMax = 0, 0
			c.MinRTTMin = 11
		},
	} {
		c := tinyConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestKnockoutNeverSplitsMaskedDim(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := tinyConfig()
	cfg.Mask = remycc.AllSignals().Without(remycc.RecEWMA)
	tr := &Trainer{Cfg: cfg, Seed: 3}
	trained := tr.Train(Budget{Generations: 2, OptPasses: 1, MovesPerWhisker: 2})
	full := remycc.FullDomain()
	for i, w := range trained.Whiskers {
		if w.Domain.Lo[remycc.RecEWMA] != full.Lo[remycc.RecEWMA] ||
			w.Domain.Hi[remycc.RecEWMA] != full.Hi[remycc.RecEWMA] {
			t.Fatalf("whisker %d split along the masked rec_ewma dimension: %+v", i, w.Domain)
		}
	}
}

func TestSampleRespectsRanges(t *testing.T) {
	cfg := Config{
		Topology:     scenario.Dumbbell,
		LinkSpeedMin: units.Mbps,
		LinkSpeedMax: 1000 * units.Mbps,
		MinRTTMin:    50 * units.Millisecond,
		MinRTTMax:    250 * units.Millisecond,
		SendersMin:   1,
		SendersMax:   10,
	}
	r := rng.New(5)
	for i := 0; i < 500; i++ {
		d := cfg.sample(r)
		if d.linkSpeed < units.Mbps || d.linkSpeed >= 1000*units.Mbps {
			t.Fatalf("link speed out of range: %v", d.linkSpeed)
		}
		if d.minRTT < 50*units.Millisecond || d.minRTT > 250*units.Millisecond {
			t.Fatalf("minRTT out of range: %v", d.minRTT)
		}
		if d.nTrainee < 1 || d.nTrainee > 10 {
			t.Fatalf("senders out of range: %d", d.nTrainee)
		}
		if d.nAIMD != 0 || d.nOther != 0 {
			t.Fatalf("unexpected cross traffic: %+v", d)
		}
	}
}

func TestSampleAIMDMix(t *testing.T) {
	cfg := Config{
		Topology:     scenario.Dumbbell,
		LinkSpeedMin: 10 * units.Mbps,
		LinkSpeedMax: 10 * units.Mbps,
		SendersMin:   2,
		SendersMax:   2,
		AIMDProb:     0.5,
	}
	r := rng.New(6)
	mixed := 0
	const n = 2000
	for i := 0; i < n; i++ {
		d := cfg.sample(r)
		if d.nAIMD == 1 {
			if d.nTrainee != 1 {
				t.Fatalf("mixed draw should have 1 trainee, got %d", d.nTrainee)
			}
			mixed++
		} else if d.nTrainee != 2 {
			t.Fatalf("pure draw should have 2 trainees, got %d", d.nTrainee)
		}
	}
	if mixed < n*4/10 || mixed > n*6/10 {
		t.Fatalf("mixed fraction = %d/%d, want ~1/2", mixed, n)
	}
}

func TestSampleCoOptimization(t *testing.T) {
	other := remycc.NewTree()
	cfg := Config{
		Topology:      scenario.Dumbbell,
		LinkSpeedMin:  10 * units.Mbps,
		LinkSpeedMax:  10 * units.Mbps,
		SendersMin:    1,
		SendersMax:    2,
		Other:         other,
		OtherCountMin: 0,
		OtherCountMax: 2,
	}
	// Force trainee range to include 0 via normalize? SendersMin >= 1
	// here, so just check other counts appear.
	r := rng.New(8)
	sawOther := false
	for i := 0; i < 200; i++ {
		d := cfg.sample(r)
		if d.nOther > 0 {
			sawOther = true
		}
		if d.nTrainee+d.nOther == 0 {
			t.Fatal("empty draw")
		}
	}
	if !sawOther {
		t.Fatal("co-optimization never drew partner senders")
	}
}

func TestEvalOneScoresTraineesOnly(t *testing.T) {
	base := tinyConfig()
	base.AIMDProb = 1.0 // 1 trainee + 1 AIMD
	cfg := base.normalize()
	d := cfg.sample(rng.New(9))
	if d.nAIMD != 1 {
		t.Fatalf("expected AIMD draw, got %+v", d)
	}
	usage := &remycc.UsageStats{}
	score := cfg.evalOne(remycc.NewTree(), d, usage, new(evalScratch))
	if score == 0 {
		t.Fatal("zero score from a live scenario")
	}
	total := int64(0)
	for _, c := range usage.Count {
		total += c
	}
	if total == 0 {
		t.Fatal("no whisker usage recorded")
	}
}

func TestNeighborsStayInBounds(t *testing.T) {
	a := remycc.Action{WindowMult: remycc.MaxWindowMult, WindowIncr: remycc.MaxWindowIncr, Intersend: remycc.MaxIntersend}
	for _, n := range neighbors(a) {
		if n.WindowMult > remycc.MaxWindowMult || n.WindowIncr > remycc.MaxWindowIncr || n.Intersend > remycc.MaxIntersend {
			t.Fatalf("neighbor out of bounds: %+v", n)
		}
	}
	a = remycc.Action{WindowMult: remycc.MinWindowMult, WindowIncr: remycc.MinWindowIncr, Intersend: remycc.MinIntersend}
	for _, n := range neighbors(a) {
		if n.WindowMult < remycc.MinWindowMult || n.WindowIncr < remycc.MinWindowIncr || n.Intersend < remycc.MinIntersend {
			t.Fatalf("neighbor out of bounds: %+v", n)
		}
	}
}

func TestBudgetNormalize(t *testing.T) {
	b := Budget{Generations: -1}.normalize()
	if b.Generations != 0 || b.OptPasses != 1 || b.MovesPerWhisker != 4 {
		t.Fatalf("normalized budget = %+v", b)
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := (&Config{LinkSpeedMin: units.Mbps}).normalize()
	if c.Mask != remycc.AllSignals() {
		t.Fatal("mask default not applied")
	}
	if c.Replicas != 4 || c.Duration != 16*units.Second {
		t.Fatalf("defaults = %+v", c)
	}
	if c.SendersMin != 1 || c.SendersMax != 1 {
		t.Fatalf("sender defaults = %d..%d", c.SendersMin, c.SendersMax)
	}
	if c.LinkSpeedMax != units.Mbps {
		t.Fatal("link speed max default not applied")
	}
}

func TestUsageOrder(t *testing.T) {
	u := remycc.NewUsageStats(4)
	u.Count[0] = 5
	u.Count[2] = 9
	u.Count[3] = 1
	got := usageOrder(u)
	want := []int{2, 0, 3}
	if len(got) != len(want) {
		t.Fatalf("order = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEnabledDims(t *testing.T) {
	dims := enabledDims(remycc.AllSignals().Without(remycc.SendEWMA))
	if len(dims) != remycc.NumSignals-1 {
		t.Fatalf("dims = %v", dims)
	}
	for _, d := range dims {
		if d == remycc.SendEWMA {
			t.Fatal("masked dim included")
		}
	}
}
