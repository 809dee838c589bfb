package core

import (
	"strings"
	"testing"
)

// Plot tests use synthetic results so they need no training.

// TestLinkSpeedPlot: Figure 2 is drawn on a logarithmic x-axis, so the
// decades 1, 10, 100, 1000 land on evenly spaced columns.
func TestLinkSpeedPlot(t *testing.T) {
	r := synthetic(linkSpeedSweep, []float64{1, 10, 100, 1000}, Panel{Series: []Series{
		{Protocol: "Tao-2x", Y: []float64{-2, -1, -0.5, -3}},
		{Protocol: "Cubic", Y: []float64{-2.5, -2.5, -2.5, -2.5}},
	}})
	out := r.Plot()
	for _, want := range []string{"Figure 2: normalized objective vs link speed", "Tao-2x", "Cubic", "link speed (Mbps)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot is missing %q:\n%s", want, out)
		}
	}
	linear := *r
	linear.Axis.Log = false
	if linear.Plot() == out {
		t.Fatal("the log-x chart is the linear chart")
	}
}

// TestMultiplexingPlot: one chart per panel, each titled with it.
func TestMultiplexingPlot(t *testing.T) {
	r := synthetic(multiplexingSweep, []float64{1, 50, 100},
		Panel{Name: "5bdp", Series: []Series{{Protocol: "Tao-1-2", Y: []float64{-0.3, -3, -4}}}},
		Panel{Name: "nodrop", Series: []Series{{Protocol: "Tao-1-2", Y: []float64{-0.3, -5, -6}}}})
	out := r.Plot()
	if !strings.Contains(out, "Figure 3 (5bdp): ") || !strings.Contains(out, "Figure 3 (nodrop): ") {
		t.Fatalf("expected both panels:\n%s", out)
	}
}

// TestPropDelayPlot: the table header and the plot label of an axis
// are separate strings, and Figure 4's differ.
func TestPropDelayPlot(t *testing.T) {
	r := synthetic(propDelaySweep, []float64{1, 150, 300}, Panel{Series: []Series{
		{Protocol: "Tao-rtt-150", Y: []float64{-2, -0.5, -1}},
	}})
	out := r.Plot()
	if !strings.Contains(out, "Figure 4: ") || !strings.Contains(out, "min RTT (ms)") || strings.Contains(out, "minRTT") {
		t.Fatalf("plot:\n%s", out)
	}
}

func TestStructurePlot(t *testing.T) {
	r := &StructureResult{
		SpeedsMbps: []float64{10, 100},
		Series: []StructureSeries{{
			Protocol:       "Omniscient",
			EqualTptMbps:   []float64{5, 58},
			Fast100TptMbps: []float64{7, 58},
		}},
	}
	if out := r.Plot(); !strings.Contains(out, "Figure 6") {
		t.Fatalf("plot:\n%s", out)
	}
}

func TestTimeDomainPlot(t *testing.T) {
	r := &TimeDomainResult{
		Traces: []TimeDomainTrace{{
			Protocol:  "Tao-TCP-aware",
			SampleSec: []float64{0, 5, 10, 15},
			QueuePkts: []int{0, 100, 150, 0},
			DropSec:   []float64{6.5, 7.0},
		}},
	}
	out := r.Plot()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "drops") {
		t.Fatalf("plot:\n%s", out)
	}
}
