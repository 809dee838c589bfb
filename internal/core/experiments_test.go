package core

import (
	"slices"
	"strings"
	"testing"

	"learnability/internal/units"
)

// These tests exercise the heavier sweep experiments at quick effort
// and assert the coarse shapes the paper reports. They are skipped
// under -short.

func TestLinkSpeedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunLinkSpeed(QuickEffort(), nil)
	series := res.Panels[0].Series
	if len(series) != 6 {
		t.Fatalf("expected 6 series, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Y) != len(res.X) {
			t.Fatalf("series %s has %d points, want %d", s.Protocol, len(s.Y), len(res.X))
		}
	}
	// Within the 22-44 Mbps design range, every Tao whose range covers
	// it beats Cubic (Figure 2's headline).
	cub := res.MeanInRange("", "Cubic", 20, 50)
	for _, name := range []string{"Tao-1000x", "Tao-100x", "Tao-10x", "Tao-2x"} {
		tao := res.MeanInRange("", name, 20, 50)
		if tao <= cub {
			t.Errorf("%s (%.3f) does not beat Cubic (%.3f) near the center of its range", name, tao, cub)
		}
	}
	// All normalized objectives are <= a small positive bound (the
	// omniscient reference is the ceiling up to estimation noise).
	for _, s := range series {
		for i, v := range s.Y {
			if v > 0.25 {
				t.Errorf("%s at %.1f Mbps scored %.3f above the omniscient ceiling",
					s.Protocol, res.X[i], v)
			}
		}
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestPropDelayShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunPropDelay(QuickEffort(), nil)
	// Every Tao beats Cubic over the 50-250 ms band covered by all
	// training ranges' vicinity (Figure 4: the Tao curves sit far
	// above Cubic and Cubic-over-sfqCoDel).
	cub := res.MeanInRange("", "Cubic", 50, 250)
	for _, r := range propDelaySweep.taos {
		tao := res.MeanInRange("", r.Name, 50, 250)
		if tao <= cub {
			t.Errorf("%s (%.3f) does not beat Cubic (%.3f) over 50-250ms", r.Name, tao, cub)
		}
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestMultiplexingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunMultiplexing(QuickEffort(), nil)
	if len(res.Panels) != 2 || res.Panels[0].Name != "5bdp" || res.Panels[1].Name != "nodrop" {
		t.Fatalf("panels = %+v", res.Panels)
	}
	// Figure 3's tradeoff: the narrow-range Tao (1-2) does better at 1
	// sender than the broad Tao (1-100), and the broad Tao does better
	// at 100 senders than the narrow one — in both buffer panels.
	for _, panel := range []string{"5bdp", "nodrop"} {
		narrowLow, ok1 := res.At(panel, "Tao-1-2", 1)
		broadLow, ok2 := res.At(panel, "Tao-1-100", 1)
		narrowHigh, ok3 := res.At(panel, "Tao-1-2", 100)
		broadHigh, ok4 := res.At(panel, "Tao-1-100", 100)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			t.Fatalf("%s: missing endpoints in sweep %v", panel, res.X)
		}
		if narrowLow <= broadLow {
			t.Errorf("%s: Tao-1-2 at n=1 (%.3f) not above Tao-1-100 (%.3f)", panel, narrowLow, broadLow)
		}
		if broadHigh <= narrowHigh {
			t.Errorf("%s: Tao-1-100 at n=100 (%.3f) not above Tao-1-2 (%.3f)", panel, broadHigh, narrowHigh)
		}
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestStructureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunStructure(QuickEffort(), nil)
	// Figure 6: both Taos carry more long-flow throughput than Cubic
	// on average, and nobody beats the proportionally fair locus by
	// a meaningful margin.
	one := res.MeanEqualTpt("Tao-one-bottleneck")
	two := res.MeanEqualTpt("Tao-two-bottleneck")
	cub := res.MeanEqualTpt("Cubic")
	omni := res.MeanEqualTpt("Omniscient")
	if ratio := headline(t, res, "one-bneck-over-cubic-tpt"); ratio <= 1 {
		t.Errorf("Tao-one-bottleneck mean flow-1 tpt (%.2f) not above Cubic (%.2f): one-bneck-over-cubic-tpt = %.3f", one, cub, ratio)
	}
	if two <= cub {
		t.Errorf("Tao-two-bottleneck mean flow-1 tpt (%.2f) not above Cubic (%.2f)", two, cub)
	}
	if one > omni*1.15 || two > omni*1.15 {
		t.Errorf("a Tao exceeded the omniscient locus: one=%.2f two=%.2f omni=%.2f", one, two, omni)
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestDiversityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res := RunDiversity(QuickEffort(), nil)
	// Figure 9's headline effects:
	// (1) naive mixed: the delay-sensitive sender suffers much higher
	//     delay than when co-optimized;
	// (2) co-optimization costs the throughput-sensitive sender
	//     throughput when alone ("the effect of playing nice").
	if gain := headline(t, res, "del-delay-improvement-from-coopt"); gain <= 1 {
		t.Errorf("co-optimization did not reduce the Del sender's mixed-network delay: naive over co-optimized = %.3f", gain)
	}
	if cost := headline(t, res, "tpt-sender-cost-of-playing-nice"); cost >= 1 {
		t.Errorf("co-optimization did not cost the Tpt sender throughput when alone: co-optimized over naive = %.3f", cost)
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

// TestDiversityRowOrder pins Figure 9's row sequence: training, then
// setting, then sender in flow order — never the order a map happened
// to iterate in.
func TestDiversityRowOrder(t *testing.T) {
	e := tinyEffort()
	e.TestReplicas, e.TestDuration = 2, 4*units.Second // long enough that every sender turns on
	var got []string
	for _, row := range RunDiversity(e, nil).Rows {
		got = append(got, row.Training+"/"+row.Setting+"/"+row.Sender)
	}
	want := []string{
		"naive/alone/Tpt", "naive/alone/Del", "naive/mixed/Tpt", "naive/mixed/Del",
		"co-optimized/alone/Tpt", "co-optimized/alone/Del", "co-optimized/mixed/Tpt", "co-optimized/mixed/Del",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// TestDiversityDeterministic runs Figure 9 twice and requires the same
// bytes from both renderings.
func TestDiversityDeterministic(t *testing.T) {
	render := func() string {
		res := RunDiversity(tinyEffort(), nil)
		var b strings.Builder
		if err := res.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return res.Table() + b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("two runs rendered differently:\n%s\n%s", a, b)
	}
}

func TestUnifiedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	e := QuickEffort()
	res := RunUnified(e, nil)
	if len(res.Rows) != e.SweepPoints*2 {
		t.Fatalf("got %d draws, want %d", len(res.Rows), e.SweepPoints*2)
	}
	tao, cubic, _ := res.MeanObjectives()
	// The extension's hypothesis (and the paper's Figure 2 hint): a
	// single broadly-trained Tao outperforms Cubic on average across
	// random networks.
	if tao <= cubic {
		t.Errorf("unified Tao mean objective %.3f not above Cubic %.3f", tao, cubic)
	}
	if res.WinRateVsCubic() < 0.5 {
		t.Errorf("win rate vs Cubic = %.2f, want majority", res.WinRateVsCubic())
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tao_unified_obj") {
		t.Error("csv header missing")
	}
}
