package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"learnability/internal/units"
)

func TestLogspace(t *testing.T) {
	xs := logspace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(xs[i]-want[i])/want[i] > 1e-9 {
			t.Fatalf("logspace = %v", xs)
		}
	}
	if got := logspace(5, 10, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("logspace n=1 = %v", got)
	}
}

func TestLinspace(t *testing.T) {
	xs := linspace(0, 10, 6)
	for i, want := range []float64{0, 2, 4, 6, 8, 10} {
		if math.Abs(xs[i]-want) > 1e-12 {
			t.Fatalf("linspace = %v", xs)
		}
	}
}

func TestThinInts(t *testing.T) {
	in := []int{1, 2, 5, 10, 20, 35, 50, 75, 100}
	out := thinInts(in, 5)
	if len(out) != 5 || out[0] != 1 || out[len(out)-1] != 100 {
		t.Fatalf("thinInts = %v", out)
	}
	if got := thinInts(in, 20); len(got) != len(in) {
		t.Fatalf("thinInts with k>len = %v", got)
	}
}

func TestRenderTable(t *testing.T) {
	s := renderTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("table = %q", s)
	}
	if !strings.HasPrefix(lines[0], "a  ") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestEffortPresets(t *testing.T) {
	d, q := DefaultEffort(), QuickEffort()
	if d.TestReplicas <= q.TestReplicas {
		t.Fatal("DefaultEffort should evaluate more replicas than QuickEffort")
	}
	if d.TrainBudget.Generations < q.TrainBudget.Generations {
		t.Fatal("DefaultEffort should train at least as deep")
	}
}

func TestTaoCache(t *testing.T) {
	ResetTaoCache()
	defer ResetTaoCache()
	e := tinyEffort()
	e.TrainBudget.MovesPerWhisker = 3 // enough search for two seeds to part ways
	spec := calibrationTaoSpec()
	trains := 0
	log := func(string, ...any) { trains++ }
	t1 := spec.Train(e, log)
	after := trains
	t2 := spec.Train(e, log)
	if trains != after {
		t.Fatal("second Train retrained instead of using the cache")
	}
	if t1 != t2 {
		t.Fatal("cache returned a different tree")
	}
	// Different effort -> different cache entry.
	e2 := e
	e2.TrainDuration = 3 * units.Second
	t3 := spec.Train(e2, log)
	if t3 == t1 {
		t.Fatal("different effort should not share a cache entry")
	}
	// Training is seeded by the effort's seed too: a second seed in the
	// same process must get its own tree, not the first seed's.
	e3 := e
	e3.Seed = e.Seed + 1
	before := trains
	t4 := spec.Train(e3, log)
	if trains == before {
		t.Fatal("an effort differing only in Seed was served the first seed's tree")
	}
	if reflect.DeepEqual(t4, t1) {
		t.Fatal("two effort seeds trained the same tree")
	}
	// The key holds the config's content: a spec of the same name whose
	// config differs only in Delta trains a tree of its own.
	other := spec
	other.Cfg.Delta = spec.Cfg.Delta + 1
	before = trains
	if t5 := other.Train(e, log); trains == before || t5 == t1 {
		t.Fatal("a same-named spec with another Delta was served the first spec's tree")
	}
}

func TestCalibrationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunCalibration(QuickEffort(), nil)
	tao, cub, sfq := res.Row("Tao"), res.Row("Cubic"), res.Row("Cubic/sfqCoDel")
	omni := res.Row("Omniscient")
	if tao == nil || cub == nil || sfq == nil || omni == nil {
		t.Fatalf("missing rows: %+v", res.Rows)
	}
	// The paper's Figure 1 ordering: the Tao beats both human-designed
	// baselines on the objective and approaches (never exceeds by much)
	// the omniscient bound.
	if gain := headline(t, res, "tao-minus-cubic-obj"); gain <= 0 {
		t.Errorf("Tao objective %.3f <= Cubic %.3f (tao-minus-cubic-obj = %.3f)", tao.MeanObjective, cub.MeanObjective, gain)
	}
	if tao.MeanObjective <= sfq.MeanObjective {
		t.Errorf("Tao objective %.3f <= Cubic/sfqCoDel %.3f", tao.MeanObjective, sfq.MeanObjective)
	}
	if tao.MeanObjective > omni.MeanObjective {
		t.Errorf("Tao objective %.3f beats the omniscient bound %.3f", tao.MeanObjective, omni.MeanObjective)
	}
	// The Tao's queueing delay is far below Cubic's standing queue.
	if tao.MedianDelaySec >= cub.MedianDelaySec {
		t.Errorf("Tao delay %.3fs >= Cubic delay %.3fs", tao.MedianDelaySec, cub.MedianDelaySec)
	}
	// Omniscient throughput = 0.75 * 32 Mbps for two half-duty senders.
	if math.Abs(res.OmniscientTpt()-24e6)/24e6 > 1e-6 {
		t.Errorf("omniscient tpt = %v, want 24 Mbps", res.OmniscientTpt())
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestKnockoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunKnockout(QuickEffort(), nil)
	all := res.Row("")
	if all == nil {
		t.Fatal("missing all-signals row")
	}
	// §3.4: no three-signal subset should beat the four-signal
	// protocol (allow a whisker of simulation noise at quick effort).
	for _, row := range res.Rows {
		if row.Removed == "" {
			continue
		}
		if row.MeanObjective > all.MeanObjective+0.05 {
			t.Errorf("knockout %q (%.3f) beat all-signals (%.3f)",
				row.Removed, row.MeanObjective, all.MeanObjective)
		}
	}
	if res.MostValuableSignal() == "" {
		t.Error("no most-valuable signal identified")
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestTimeDomainShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunTimeDomain(QuickEffort(), nil)
	for _, name := range []string{"Tao-TCP-aware", "Tao-TCP-naive"} {
		tr := res.Trace(name)
		if tr == nil {
			t.Fatalf("missing trace %s", name)
		}
		if len(tr.SampleSec) < 250 {
			t.Fatalf("%s: only %d samples over 15s at 50ms", name, len(tr.SampleSec))
		}
		// While the TCP cross-sender is on (t in [5,10)), the queue is
		// longer than before it turned on.
		during := tr.MeanQueueBetween(5.5, 10)
		before := tr.MeanQueueBetween(1, 5)
		if during <= before {
			t.Errorf("%s: queue during TCP (%.1f) not above queue before (%.1f)",
				name, during, before)
		}
		// NewReno slow-starting into a 2 BDP buffer must overflow it.
		if len(tr.DropSec) == 0 {
			t.Errorf("%s: no drops recorded", name)
		}
		if tr.TaoTptMbps <= 0 {
			t.Errorf("%s: zero Tao throughput", name)
		}
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestTCPAwareShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunTCPAware(QuickEffort(), nil)
	// Homogeneous Taos keep queueing delay far below NewReno's
	// standing queue (the headline of Figure 7's left panel).
	reno := res.Row("homogeneous", "NewReno")
	for _, name := range []string{"Tao-TCP-naive", "Tao-TCP-aware"} {
		row := res.Row("homogeneous", name)
		if row == nil || reno == nil {
			t.Fatalf("missing rows")
		}
		if row.MedianDelaySec >= reno.MedianDelaySec {
			t.Errorf("%s homogeneous delay %.3fs >= NewReno %.3fs",
				name, row.MedianDelaySec, reno.MedianDelaySec)
		}
	}
	// Every mixed-network row exists and has sane values.
	for _, name := range []string{"Tao-TCP-naive", "Tao-TCP-aware"} {
		row := res.Row("vs-NewReno", name)
		if row == nil {
			t.Fatalf("missing vs-NewReno row for %s", name)
		}
		if row.MedianTptBps <= 0 || row.MedianTptBps > 10.2e6 {
			t.Errorf("%s vs-NewReno tpt = %v", name, row.MedianTptBps)
		}
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestVegasSqueezeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunVegasSqueeze(QuickEffort(), nil)
	homog := res.Row("homogeneous", "Vegas")
	squeezed := res.Row("vs-NewReno", "Vegas")
	reno := res.Row("vs-NewReno", "NewReno")
	if homog == nil || squeezed == nil || reno == nil {
		t.Fatalf("missing rows: %+v", res.Rows)
	}
	// §4.5's premise: Vegas does fine against itself but is squeezed
	// out by loss-triggered TCP.
	if share := headline(t, res, "vegas-share-vs-newreno"); share >= 1 {
		t.Errorf("Vegas (%.2f Mbps) not squeezed below NewReno (%.2f Mbps): vegas-share-vs-newreno = %.3f",
			squeezed.TptMbps, reno.TptMbps, share)
	}
	if squeezed.TptMbps >= homog.TptMbps {
		t.Errorf("Vegas vs TCP (%.2f) should fall below Vegas vs Vegas (%.2f)",
			squeezed.TptMbps, homog.TptMbps)
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestCSVWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	var buf strings.Builder
	cal := RunCalibration(QuickEffort(), nil)
	if err := cal.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(cal.Rows)+1 {
		t.Fatalf("calibration csv has %d lines, want %d", len(lines), len(cal.Rows)+1)
	}
	if !strings.HasPrefix(lines[0], "protocol,median_tpt_bps") {
		t.Fatalf("csv header = %q", lines[0])
	}
	buf.Reset()
	veg := RunVegasSqueeze(QuickEffort(), nil)
	if err := veg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "homogeneous,Vegas") {
		t.Fatalf("vegas csv missing rows: %q", buf.String())
	}
	buf.Reset()
	td := RunTimeDomain(QuickEffort(), nil)
	if err := td.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sample") || !strings.Contains(buf.String(), "drop") {
		t.Fatal("time-domain csv missing sample/drop rows")
	}
}
