package core

import (
	"fmt"
	"io"
	"strings"

	"learnability/internal/plot"
	"learnability/internal/scenario"
	"learnability/internal/stats"
	"learnability/internal/units"
)

// The paper's §4.1–4.3 are one design run on three axes: train Taos on
// nested ranges of one network parameter, sweep that parameter at test
// time, and score every protocol by the normalized objective, so the
// omniscient allocation sits at 0. Sweep is that design's result,
// sweepDef its declaration and runSweep its one implementation; the
// three figures are the rows at the end of this file.

// Axis describes a Sweep's swept parameter and what each rendering
// calls it.
type Axis struct {
	Header string // table column header
	Format string // fmt verb of a table cell
	Column string // CSV column name
	Label  string // plot x-axis label
	Log    bool   // plot on a logarithmic x-axis
}

// Series is one protocol's curve.
type Series struct {
	Protocol string    // protocol name
	Y        []float64 // normalized objective at the sweep's X[i]
}

// Panel is one sub-figure of a Sweep: the same x grid and protocols
// under one variation of the network.
type Panel struct {
	Name   string   // "" in a single-panel sweep
	Series []Series // one curve per protocol
}

// Sweep is the dataset behind one of Figures 2–4.
type Sweep struct {
	Figure  string // "Figure 2"
	Caption string // what the figure plots
	YLabel  string // plot y-axis label
	Axis    Axis   // the swept parameter
	// PanelColumn is the CSV column naming a row's panel; "" in a
	// single-panel sweep, which has no such column.
	PanelColumn string
	X           []float64 // the swept values
	Panels      []Panel   // in the figure's order
	// headlines are the figure's summary quantities, declared by its
	// sweepDef row.
	headlines []sweepHeadline
}

// sweepHeadline declares one headline of a sweep: the mean of curve
// over, less the mean of curve less when one is named, both taken over
// the swept values inside [lo, hi] of one panel.
type sweepHeadline struct {
	id         string
	panel      string
	over, less string
	lo, hi     float64
}

// Series returns the named protocol's curve in the named panel, or
// nil.
func (s *Sweep) Series(panel, name string) *Series {
	for pi := range s.Panels {
		if s.Panels[pi].Name != panel {
			continue
		}
		for i := range s.Panels[pi].Series {
			if s.Panels[pi].Series[i].Protocol == name {
				return &s.Panels[pi].Series[i]
			}
		}
	}
	return nil
}

// At returns the named curve's value at the swept value x (false if
// the panel, the protocol or x is absent).
func (s *Sweep) At(panel, name string, x float64) (float64, bool) {
	if series := s.Series(panel, name); series != nil {
		for i, v := range s.X {
			if v == x {
				return series.Y[i], true
			}
		}
	}
	return 0, false
}

// MeanInRange averages the named curve over the swept values inside
// [lo, hi], each bound widened by 0.1 % so a grid point computed in
// floating point still counts as on it. It is 0 when the curve is
// absent or no point falls inside.
func (s *Sweep) MeanInRange(panel, name string, lo, hi float64) float64 {
	mean, _ := s.meanInRange(panel, name, lo, hi)
	return mean
}

// meanInRange is MeanInRange; ok is false when the curve is absent or
// no point falls inside.
func (s *Sweep) meanInRange(panel, name string, lo, hi float64) (mean float64, ok bool) {
	series := s.Series(panel, name)
	if series == nil {
		return 0, false
	}
	var in []float64
	for i, x := range s.X {
		if x >= lo*0.999 && x <= hi*1.001 {
			in = append(in, series.Y[i])
		}
	}
	return stats.Mean(in), len(in) > 0
}

// Headlines evaluates the figure's declared headlines, leaving out one
// whose curve is absent or has no swept value inside its range.
func (s *Sweep) Headlines() []Headline {
	var out []Headline
	for _, h := range s.headlines {
		v, ok := s.meanInRange(h.panel, h.over, h.lo, h.hi)
		if ok && h.less != "" {
			var less float64
			less, ok = s.meanInRange(h.panel, h.less, h.lo, h.hi)
			v -= less
		}
		if ok {
			out = append(out, Headline{h.id, v})
		}
	}
	return out
}

// Table renders one table per panel: rows are swept values, columns
// protocols, the omniscient reference 0 by construction.
func (s *Sweep) Table() string {
	var b strings.Builder
	for _, p := range s.Panels {
		header := []string{s.Axis.Header}
		if p.Name != "" {
			header[0] += " [" + p.Name + "]"
		}
		for _, series := range p.Series {
			header = append(header, series.Protocol)
		}
		header = append(header, "Omniscient")
		var rows [][]string
		for i, x := range s.X {
			row := []string{fmt.Sprintf(s.Axis.Format, x)}
			for _, series := range p.Series {
				row = append(row, fmt.Sprintf("%+.3f", series.Y[i]))
			}
			rows = append(rows, append(row, "+0.000"))
		}
		b.WriteString(renderTable(header, rows))
		if p.Name != "" {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// WriteCSV dumps the dataset in long form, one row per (panel,
// protocol, swept value).
func (s *Sweep) WriteCSV(w io.Writer) error {
	header := []string{"protocol", s.Axis.Column, "normalized_objective"}
	if s.PanelColumn != "" {
		header = append([]string{s.PanelColumn}, header...)
	}
	var rows [][]string
	for _, p := range s.Panels {
		for _, series := range p.Series {
			for i, x := range s.X {
				row := []string{series.Protocol, f(x), f(series.Y[i])}
				if s.PanelColumn != "" {
					row = append([]string{p.Name}, row...)
				}
				rows = append(rows, row)
			}
		}
	}
	return writeCSV(w, header, rows)
}

// Plot renders one ASCII chart per panel.
func (s *Sweep) Plot() string {
	var b strings.Builder
	for _, p := range s.Panels {
		title := s.Figure
		if p.Name != "" {
			title += " (" + p.Name + ")"
		}
		var curves []plot.Series
		for _, series := range p.Series {
			curves = append(curves, plot.Series{Name: series.Protocol, X: s.X, Y: series.Y})
		}
		b.WriteString(plot.Chart(title+": "+s.Caption, curves, plot.Options{
			Width: 72, Height: 18, LogX: s.Axis.Log, XLabel: s.Axis.Label, YLabel: s.YLabel}))
		if p.Name != "" {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// sweepDef declares a single-axis study as data.
type sweepDef struct {
	// Sweep carries the figure's naming and headlines; runSweep fills
	// X and the panels' series.
	Sweep
	// taos are the protocols under study, one per training range; the
	// baselines (Cubic, Cubic-over-sfqCoDel) join every sweep.
	taos []TaoSpec
	// grid returns the swept values for an effort's SweepPoints.
	grid func(points int) []float64
	// panels are the figure's sub-figures, in order.
	panels []sweepPanel
	// network returns the testing dumbbell at swept value x.
	network func(x float64) (speed units.Rate, minRTT units.Duration, senders int)
	// label names a testing point for seeding. The formats are part of
	// every published number: changing one reseeds that figure.
	label func(panel string, x float64) string
}

// sweepPanel is one sub-figure's name ("" when it is the only one) and
// gateway. A protocol with its own gateway (Cubic-over-sfqCoDel)
// overrides the panel's — its CoDel still drops in a no-drop panel —
// because, as in the paper, sfqCoDel is part of that baseline.
type sweepPanel struct {
	name      string
	buffering scenario.Buffering
}

// dropTail is the panel list of a single-panel sweep.
var dropTail = []sweepPanel{{"", scenario.FiniteDropTail}}

// runSweep trains the definition's Taos and scores them and the
// baselines at every swept value of every panel.
func runSweep(def sweepDef, e Effort, log func(string, ...any)) *Sweep {
	var protocols []Protocol
	for _, spec := range def.taos {
		protocols = append(protocols, spec.protocol(e, log))
	}
	protocols = append(protocols, cubicProtocol(), cubicSfqCoDelProtocol())

	res := def.Sweep
	res.X = def.grid(e.SweepPoints)
	for _, panel := range def.panels {
		series := make([]Series, len(protocols))
		for i, p := range protocols {
			series[i].Protocol = p.Name
		}
		for _, x := range res.X {
			speed, minRTT, n := def.network(x)
			tmpl := testDumbbell(e, speed, minRTT)
			tmpl.Buffering = panel.buffering
			for i, obj := range normalizedObjectives(e, protocols, tmpl, n, def.label(panel.name, x)) {
				series[i].Y = append(series[i].Y, obj)
			}
		}
		res.Panels = append(res.Panels, Panel{Name: panel.name, Series: series})
	}
	return &res
}

// rtt150 is the minimum RTT of every link-speed and multiplexing
// network, and the center of the propagation-delay training ranges.
const rtt150 = 150 * units.Millisecond

// linkSpeedSweep is Table 2 / Figure 2: four Taos trained on nested
// link-speed ranges centered on 32 Mbps (the geometric mean of 1 and
// 1000 Mbps), tested from 1 to 1000 Mbps.
var linkSpeedSweep = sweepDef{
	Sweep: Sweep{
		Figure: "Figure 2", Caption: "normalized objective vs link speed",
		YLabel: "log(norm tpt) - log(norm delay)",
		Axis: Axis{Header: "link speed (Mbps)", Format: "%.2f", Column: "link_speed_mbps",
			Label: "link speed (Mbps)", Log: true},
		// What the narrowest Tao gains inside its 22–44 Mbps design
		// range, and what the broadest keeps over Cubic everywhere.
		headlines: []sweepHeadline{
			{"narrow-minus-broad-in-range", "", "Tao-2x", "Tao-1000x", 20, 50},
			{"broad-minus-cubic-full-range", "", "Tao-1000x", "Cubic", 1, 1000},
		},
	},
	taos: func() []TaoSpec {
		tao := func(name string, lo, hi units.Rate) TaoSpec {
			return TaoSpec{name, dumbbellTraining(lo, hi, rtt150, rtt150, 2, 2, 5), 0x0e2}
		}
		return []TaoSpec{
			tao("Tao-1000x", 1*units.Mbps, 1000*units.Mbps),
			tao("Tao-100x", 3200*units.Kbps, 320*units.Mbps),
			tao("Tao-10x", 10*units.Mbps, 100*units.Mbps),
			tao("Tao-2x", 22*units.Mbps, 44*units.Mbps),
		}
	}(),
	grid:   func(n int) []float64 { return logspace(1, 1000, n) },
	panels: dropTail,
	network: func(x float64) (units.Rate, units.Duration, int) {
		return units.Rate(x) * units.Mbps, rtt150, 2
	},
	label: func(_ string, x float64) string { return fmt.Sprintf("linkspeed-%.3f", x) },
}

// multiplexingSweep is Table 3 / Figure 3: five Taos trained on a
// 15 Mbps dumbbell with 1..max senders, tested as the number of
// senders sweeps 1..100, once with 5 BDP of buffering and once with a
// no-drop buffer.
var multiplexingSweep = sweepDef{
	Sweep: Sweep{
		Figure: "Figure 3", Caption: "normalized objective vs number of senders",
		YLabel:      "normalized objective",
		Axis:        Axis{Header: "senders", Format: "%.0f", Column: "senders", Label: "senders"},
		PanelColumn: "buffer",
		// The trade-off at the two ends of the sweep.
		headlines: []sweepHeadline{
			{"narrow-minus-broad-at-1-sender", "5bdp", "Tao-1-2", "Tao-1-100", 1, 1},
			{"broad-minus-narrow-at-100-senders", "5bdp", "Tao-1-100", "Tao-1-2", 100, 100},
		},
	},
	taos: func() []TaoSpec {
		var specs []TaoSpec
		for _, most := range []int{2, 10, 20, 50, 100} {
			specs = append(specs, TaoSpec{fmt.Sprintf("Tao-1-%d", most),
				dumbbellTraining(15*units.Mbps, 15*units.Mbps, rtt150, rtt150, 1, most, 5), 0x0e3})
		}
		return specs
	}(),
	grid: func(n int) []float64 {
		var xs []float64
		for _, senders := range thinInts([]int{1, 2, 5, 10, 20, 35, 50, 75, 100}, n) {
			xs = append(xs, float64(senders))
		}
		return xs
	},
	panels: []sweepPanel{{"5bdp", scenario.FiniteDropTail}, {"nodrop", scenario.NoDrop}},
	network: func(x float64) (units.Rate, units.Duration, int) {
		return 15 * units.Mbps, rtt150, int(x)
	},
	label: func(panel string, x float64) string { return fmt.Sprintf("mux-%s-%.0f", panel, x) },
}

// propDelaySweep is Table 4 / Figure 4: four Taos trained on a 33 Mbps
// dumbbell with minimum-RTT ranges widening around 150 ms, tested as
// the minimum RTT sweeps 1–300 ms.
var propDelaySweep = sweepDef{
	Sweep: Sweep{
		Figure: "Figure 4", Caption: "normalized objective vs minimum RTT",
		YLabel: "normalized objective",
		Axis:   Axis{Header: "minRTT (ms)", Format: "%.0f", Column: "min_rtt_ms", Label: "min RTT (ms)"},
		// What a little dither in training buys far below the
		// training RTT, and the broad Tao's level over its own range.
		headlines: []sweepHeadline{
			{"dithered-minus-exact-below-50ms", "", "Tao-rtt-145-155", "Tao-rtt-150", 1, 49},
			{"broad-50-250ms", "", "Tao-rtt-50-250", "", 50, 250},
		},
	},
	taos: func() []TaoSpec {
		tao := func(name string, lo, hi units.Duration) TaoSpec {
			return TaoSpec{name, dumbbellTraining(33*units.Mbps, 33*units.Mbps, lo, hi, 2, 2, 5), 0x0e4}
		}
		return []TaoSpec{
			tao("Tao-rtt-150", rtt150, rtt150),
			tao("Tao-rtt-145-155", 145*units.Millisecond, 155*units.Millisecond),
			tao("Tao-rtt-140-160", 140*units.Millisecond, 160*units.Millisecond),
			tao("Tao-rtt-50-250", 50*units.Millisecond, 250*units.Millisecond),
		}
	}(),
	grid:   func(n int) []float64 { return linspace(1, 300, n) },
	panels: dropTail,
	network: func(x float64) (units.Rate, units.Duration, int) {
		return 33 * units.Mbps, max(units.DurationFromSeconds(x/1e3), units.Millisecond), 2
	},
	label: func(_ string, x float64) string { return fmt.Sprintf("rtt-%.1f", x) },
}

// RunLinkSpeed runs the link-speed operating-range study (Figure 2).
func RunLinkSpeed(e Effort, log func(string, ...any)) *Sweep {
	return runSweep(linkSpeedSweep, e, log)
}

// RunMultiplexing runs the degree-of-multiplexing study (Figure 3).
func RunMultiplexing(e Effort, log func(string, ...any)) *Sweep {
	return runSweep(multiplexingSweep, e, log)
}

// RunPropDelay runs the propagation-delay study (Figure 4).
func RunPropDelay(e Effort, log func(string, ...any)) *Sweep {
	return runSweep(propDelaySweep, e, log)
}

// thinInts picks k roughly evenly spaced elements of xs, keeping the
// first and last.
func thinInts(xs []int, k int) []int {
	if k >= len(xs) || k < 2 {
		return xs
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, xs[i*(len(xs)-1)/(k-1)])
	}
	return out
}
