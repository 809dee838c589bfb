package core

import (
	"slices"
	"strings"
	"testing"

	"learnability/internal/stats"
)

// Unit tests for result-type helpers using synthetic data (no
// training, no simulation).

// synthetic returns the declared sweep's figure with made-up curves:
// the real axis, captions and panel names, no training.
func synthetic(def sweepDef, x []float64, panels ...Panel) *Sweep {
	s := def.Sweep
	s.X, s.Panels = x, panels
	return &s
}

// wantHeadlines fails unless the result's headlines are exactly want,
// IDs, values and order.
func wantHeadlines(t *testing.T, r Result, want ...Headline) {
	t.Helper()
	if got := r.Headlines(); !slices.Equal(got, want) {
		t.Errorf("Headlines() = %+v, want %+v", got, want)
	}
}

// headline returns the result's headline of that ID; the test fails if
// the result left it out.
func headline(t *testing.T, r Result, id string) float64 {
	t.Helper()
	for _, h := range r.Headlines() {
		if h.ID == id {
			return h.Value
		}
	}
	t.Fatalf("no headline %q among %+v", id, r.Headlines())
	return 0
}

// TestLinkSpeedResultHelpers checks the lookups and the table a
// single-panel sweep offers.
func TestLinkSpeedResultHelpers(t *testing.T) {
	r := synthetic(linkSpeedSweep, []float64{1, 10, 100}, Panel{Series: []Series{
		{Protocol: "A", Y: []float64{-1, -2, -3}},
		{Protocol: "B", Y: []float64{-4, -5, -6}},
	}})
	if s := r.Series("", "B"); s == nil || s.Y[0] != -4 {
		t.Fatalf("Series = %+v", s)
	}
	if r.Series("", "missing") != nil {
		t.Fatal("missing series should be nil")
	}
	if got := r.MeanInRange("", "A", 1, 10); got != -1.5 {
		t.Fatalf("MeanInRange = %v", got)
	}
	// A bound a hair inside a grid point computed in floating point
	// still includes it.
	if got := r.MeanInRange("", "A", 1.0005, 9.995); got != -1.5 {
		t.Fatalf("MeanInRange with bounds within 0.1%% of the grid = %v", got)
	}
	if got := r.MeanInRange("", "A", 1.01, 9.9); got != 0 {
		t.Fatalf("MeanInRange with bounds 1%% inside the grid = %v", got)
	}
	if got := r.MeanInRange("", "A", 500, 900); got != 0 {
		t.Fatalf("empty range = %v", got)
	}
	if got := r.MeanInRange("", "missing", 1, 100); got != 0 {
		t.Fatalf("missing series mean = %v", got)
	}
	want := renderTable(
		[]string{"link speed (Mbps)", "A", "B", "Omniscient"},
		[][]string{
			{"1.00", "-1.000", "-4.000", "+0.000"},
			{"10.00", "-2.000", "-5.000", "+0.000"},
			{"100.00", "-3.000", "-6.000", "+0.000"},
		})
	if got := r.Table(); got != want {
		t.Fatalf("table =\n%s\nwant\n%s", got, want)
	}
	// Neither curve of either headline is here.
	wantHeadlines(t, r)
	// The first headline reads the grid inside 20–50 Mbps only, the
	// second all of it; without Cubic the second is left out, without
	// a grid point in range the first.
	tao2x := Series{Protocol: "Tao-2x", Y: []float64{-3, -1, -4}}
	tao1000x := Series{Protocol: "Tao-1000x", Y: []float64{-1, -1.5, -2}}
	cubic := Series{Protocol: "Cubic", Y: []float64{-2, -3, -4}}
	grid := []float64{1, 31.62, 1000}
	wantHeadlines(t, synthetic(linkSpeedSweep, grid, Panel{Series: []Series{tao2x, tao1000x, cubic}}),
		Headline{"narrow-minus-broad-in-range", 0.5}, Headline{"broad-minus-cubic-full-range", 1.5})
	wantHeadlines(t, synthetic(linkSpeedSweep, grid, Panel{Series: []Series{tao2x, tao1000x}}),
		Headline{"narrow-minus-broad-in-range", 0.5})
	wantHeadlines(t, synthetic(linkSpeedSweep, []float64{1, 10, 1000}, Panel{Series: []Series{tao2x, tao1000x, cubic}}),
		Headline{"broad-minus-cubic-full-range", 1.5})
}

// TestPropDelayResultHelpers checks a single-panel sweep's CSV: long
// form, no panel column, full-precision values.
func TestPropDelayResultHelpers(t *testing.T) {
	r := synthetic(propDelaySweep, []float64{1, 150.5}, Panel{Series: []Series{
		{Protocol: "X", Y: []float64{-3, -1.25}},
		{Protocol: "Y", Y: []float64{-2, 0.123456789}},
	}})
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "protocol,min_rtt_ms,normalized_objective\n" +
		"X,1,-3\nX,150.5,-1.25\nY,1,-2\nY,150.5,0.12345679\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
	// Below 50 ms means the grid points 1 and 25, not 150; the broad
	// Tao is read over 50–250 ms alone.
	wantHeadlines(t, synthetic(propDelaySweep, []float64{1, 25, 150}, Panel{Series: []Series{
		{Protocol: "Tao-rtt-150", Y: []float64{-2, -1, 9}},
		{Protocol: "Tao-rtt-145-155", Y: []float64{-1, -1, 9}},
		{Protocol: "Tao-rtt-50-250", Y: []float64{9, 9, -0.75}},
	}}), Headline{"dithered-minus-exact-below-50ms", 0.5}, Headline{"broad-50-250ms", -0.75})
}

// TestMultiplexingResultHelpers checks what panels add: lookups by
// panel, one table per panel, a panel column in the CSV.
func TestMultiplexingResultHelpers(t *testing.T) {
	r := synthetic(multiplexingSweep, []float64{1, 100},
		Panel{Name: "5bdp", Series: []Series{{Protocol: "T", Y: []float64{-0.5, -4}}}},
		Panel{Name: "nodrop", Series: []Series{{Protocol: "T", Y: []float64{-1, -2}}}})
	if v, ok := r.At("5bdp", "T", 100); !ok || v != -4 {
		t.Fatalf("At = %v %v", v, ok)
	}
	if v, ok := r.At("nodrop", "T", 100); !ok || v != -2 {
		t.Fatalf("At in the second panel = %v %v", v, ok)
	}
	if _, ok := r.At("5bdp", "T", 7); ok {
		t.Fatal("absent sender count should not resolve")
	}
	if _, ok := r.At("1bdp", "T", 1); ok {
		t.Fatal("absent panel should not resolve")
	}
	if r.Series("5bdp", "missing") != nil {
		t.Fatal("missing series should be nil")
	}
	tbl := r.Table()
	if !strings.Contains(tbl, "senders [5bdp]") || !strings.Contains(tbl, "senders [nodrop]") {
		t.Fatalf("table does not head each panel:\n%s", tbl)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "buffer,protocol,senders,normalized_objective\n" +
		"5bdp,T,1,-0.5\n5bdp,T,100,-4\nnodrop,T,1,-1\nnodrop,T,100,-2\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
	// Both headlines read the 5 BDP panel at one grid point each; a
	// grid that stops short of 100 senders has only the first.
	ends := func(x []float64) *Sweep {
		return synthetic(multiplexingSweep, x,
			Panel{Name: "5bdp", Series: []Series{
				{Protocol: "Tao-1-2", Y: []float64{-0.5, -4}}, {Protocol: "Tao-1-100", Y: []float64{-3, -1}}}},
			Panel{Name: "nodrop", Series: []Series{
				{Protocol: "Tao-1-2", Y: []float64{7, 7}}, {Protocol: "Tao-1-100", Y: []float64{7, 7}}}})
	}
	wantHeadlines(t, ends([]float64{1, 100}),
		Headline{"narrow-minus-broad-at-1-sender", 2.5}, Headline{"broad-minus-narrow-at-100-senders", 3})
	wantHeadlines(t, ends([]float64{1, 50}), Headline{"narrow-minus-broad-at-1-sender", 2.5})
	wantHeadlines(t, r)
}

func TestStructureResultHelpers(t *testing.T) {
	r := &StructureResult{
		SpeedsMbps: []float64{10, 100},
		Series: []StructureSeries{{
			Protocol:       "S",
			EqualTptMbps:   []float64{2, 4},
			Fast100TptMbps: []float64{3, 5},
		}},
	}
	if got := r.MeanEqualTpt("S"); got != 3 {
		t.Fatalf("MeanEqualTpt = %v", got)
	}
	if got := r.MeanEqualTpt("missing"); got != 0 {
		t.Fatalf("missing = %v", got)
	}
	if !strings.Contains(r.Table(), "S [eq]") {
		t.Fatalf("table = %q", r.Table())
	}
	// An absent protocol averages 0, and a ratio over it is left out.
	wantHeadlines(t, r)
	r.Series = []StructureSeries{
		{Protocol: "Tao-one-bottleneck", EqualTptMbps: []float64{2, 4}, Fast100TptMbps: []float64{9, 9}},
		{Protocol: "Tao-two-bottleneck", EqualTptMbps: []float64{1, 3}, Fast100TptMbps: []float64{9, 9}},
	}
	wantHeadlines(t, r, Headline{"one-bneck-over-two-bneck-tpt", 1.5})
	r.Series = append(r.Series, StructureSeries{Protocol: "Cubic", EqualTptMbps: []float64{1, 0.5}})
	wantHeadlines(t, r, Headline{"one-bneck-over-two-bneck-tpt", 1.5}, Headline{"one-bneck-over-cubic-tpt", 4})
}

func TestTCPAwareResultHelpers(t *testing.T) {
	r := &TCPAwareResult{Rows: []TCPAwareRow{
		{Setting: "homogeneous", Protocol: "P"},
	}}
	if r.Row("homogeneous", "P") == nil {
		t.Fatal("row lookup failed")
	}
	if r.Row("vs-NewReno", "P") != nil {
		t.Fatal("wrong setting resolved")
	}
	wantHeadlines(t, r)
	row := func(setting, protocol string, tptBps, delaySec float64) TCPAwareRow {
		return TCPAwareRow{setting, protocol, stats.Summary{MedianTptBps: tptBps, MedianDelaySec: delaySec}}
	}
	r.Rows = []TCPAwareRow{
		row("homogeneous", "Tao-TCP-naive", 4e6, 0.002), row("homogeneous", "Tao-TCP-aware", 9e6, 0.003),
		row("vs-NewReno", "Tao-TCP-naive", 4e6, 0.1), row("vs-NewReno", "Tao-TCP-aware", 3e6, 0.9),
	}
	wantHeadlines(t, r, Headline{"aware-over-naive-homog-delay", 1.5}, Headline{"aware-over-naive-vs-tcp-tpt", 0.75})
	// A naive Tao that never queued gives no delay ratio; a missing
	// mixed-network row gives no throughput ratio.
	r.Rows[0].MedianDelaySec = 0
	wantHeadlines(t, r, Headline{"aware-over-naive-vs-tcp-tpt", 0.75})
	r.Rows = r.Rows[:3]
	wantHeadlines(t, r)
}

func TestDiversityResultHelpers(t *testing.T) {
	r := &DiversityResult{Rows: []DiversityRow{
		{Training: "naive", Setting: "mixed", Sender: "Del", QueueMs: 9},
	}}
	if row := r.Row("naive", "mixed", "Del"); row == nil || row.QueueMs != 9 {
		t.Fatalf("row = %+v", row)
	}
	if r.Row("naive", "alone", "Del") != nil {
		t.Fatal("wrong setting resolved")
	}
	if !strings.Contains(r.Table(), "naive") {
		t.Fatal("table missing rows")
	}
	wantHeadlines(t, r)
	r.Rows = append(r.Rows,
		DiversityRow{Training: "co-optimized", Setting: "mixed", Sender: "Del", QueueMs: 1.5},
		DiversityRow{Training: "naive", Setting: "alone", Sender: "Tpt", TptMbps: 8},
		DiversityRow{Training: "co-optimized", Setting: "alone", Sender: "Tpt", TptMbps: 6})
	wantHeadlines(t, r, Headline{"del-delay-improvement-from-coopt", 6}, Headline{"tpt-sender-cost-of-playing-nice", 0.75})
	r.Rows[1].QueueMs = 0
	wantHeadlines(t, r, Headline{"tpt-sender-cost-of-playing-nice", 0.75})
}

func TestKnockoutResultHelpers(t *testing.T) {
	r := &KnockoutResult{Rows: []KnockoutRow{
		{Name: "all", Removed: "", MeanObjective: 10},
		{Name: "norec", Removed: "rec_ewma", MeanObjective: 8},
		{Name: "noratio", Removed: "rtt_ratio", MeanObjective: 9.5},
	}}
	if r.MostValuableSignal() != "rec_ewma" {
		t.Fatalf("MostValuableSignal = %q", r.MostValuableSignal())
	}
	if r.Row("rec_ewma") == nil || r.Row("") == nil {
		t.Fatal("row lookup failed")
	}
	if (&KnockoutResult{}).MostValuableSignal() != "" {
		t.Fatal("empty result should report no signal")
	}
	if !strings.Contains(r.Table(), "(none)") {
		t.Fatalf("table = %q", r.Table())
	}
	wantHeadlines(t, r, Headline{"value-of-rec-ewma", 2})
	wantHeadlines(t, &KnockoutResult{Rows: r.Rows[:1]})
}

func TestTimeDomainTraceHelpers(t *testing.T) {
	tr := TimeDomainTrace{
		SampleSec: []float64{0, 1, 2, 3},
		QueuePkts: []int{0, 10, 20, 0},
	}
	if got := tr.MeanQueueBetween(1, 3); got != 15 {
		t.Fatalf("MeanQueueBetween = %v", got)
	}
	if got := tr.MeanQueueBetween(10, 20); got != 0 {
		t.Fatalf("empty window = %v", got)
	}
	r := &TimeDomainResult{Traces: []TimeDomainTrace{{Protocol: "p"}}}
	if r.Trace("p") == nil || r.Trace("q") != nil {
		t.Fatal("Trace lookup broken")
	}
	// Each panel present gives its mean occupancy over [5, 10) s.
	wantHeadlines(t, r)
	naive := TimeDomainTrace{Protocol: "Tao-TCP-naive", SampleSec: []float64{4, 5, 9, 10}, QueuePkts: []int{50, 10, 20, 70}}
	r.Traces = append(r.Traces, naive)
	wantHeadlines(t, r, Headline{"Tao-TCP-naive-queue-during-tcp", 15})
}

func TestUnifiedResultHelpers(t *testing.T) {
	r := &UnifiedResult{Rows: []UnifiedRow{
		{TaoObj: -1, CubicObj: -2, SfqObj: -1.5},
		{TaoObj: -3, CubicObj: -2, SfqObj: -2},
	}}
	if got := r.WinRateVsCubic(); got != 0.5 {
		t.Fatalf("WinRateVsCubic = %v", got)
	}
	tao, cubic, sfq := r.MeanObjectives()
	if tao != -2 || cubic != -2 || sfq != -1.75 {
		t.Fatalf("means = %v %v %v", tao, cubic, sfq)
	}
	if (&UnifiedResult{}).WinRateVsCubic() != 0 {
		t.Fatal("empty result win rate should be 0")
	}
	if !strings.Contains(r.Table(), "win rate") {
		t.Fatal("table missing summary")
	}
	wantHeadlines(t, r)
}

func TestVegasResultHelpers(t *testing.T) {
	r := &VegasResult{Rows: []VegasRow{{Setting: "homogeneous", Protocol: "Vegas"}}}
	if r.Row("homogeneous", "Vegas") == nil || r.Row("vs-NewReno", "Vegas") != nil {
		t.Fatal("row lookup broken")
	}
	wantHeadlines(t, r)
	r.Rows = append(r.Rows, VegasRow{Setting: "vs-NewReno", Protocol: "Vegas", TptMbps: 1},
		VegasRow{Setting: "vs-NewReno", Protocol: "NewReno", TptMbps: 8})
	wantHeadlines(t, r, Headline{"vegas-share-vs-newreno", 0.125})
	r.Rows[2].TptMbps = 0
	wantHeadlines(t, r)
}

func TestCalibrationResultHelpers(t *testing.T) {
	r := &CalibrationResult{Rows: []CalibrationRow{{Protocol: "Omniscient"}}}
	if r.Row("Omniscient") == nil || r.Row("Tao") != nil {
		t.Fatal("row lookup broken")
	}
	if r.OmniscientTpt() != 0 {
		t.Fatalf("OmniscientTpt = %v", r.OmniscientTpt())
	}
	if (&CalibrationResult{}).OmniscientTpt() != 0 {
		t.Fatal("empty result omniscient tpt should be 0")
	}
	// All three rows or no headline.
	wantHeadlines(t, r)
	r.Rows = []CalibrationRow{
		{Protocol: "Tao", Summary: stats.Summary{MedianTptBps: 12e6}, MeanObjective: 18.5},
		{Protocol: "Cubic", MeanObjective: 17.25},
	}
	wantHeadlines(t, r)
	r.Rows = append(r.Rows, CalibrationRow{Protocol: "Omniscient", Summary: stats.Summary{MedianTptBps: 24e6}})
	wantHeadlines(t, r, Headline{"tao-minus-cubic-obj", 1.25}, Headline{"tao-over-omniscient-tpt", 0.5})
}
