package core

import (
	"fmt"

	"learnability/internal/cc/remycc"
	"learnability/internal/omniscient"
	"learnability/internal/scenario"
	"learnability/internal/stats"
	"learnability/internal/units"
)

// Calibration experiment (E1): Table 1 / Figure 1. A Tao trained for
// the exact testing network is compared against Cubic,
// Cubic-over-sfqCoDel, and the omniscient protocol on a 32 Mbps,
// 150 ms-RTT dumbbell with two on/off senders and 5 BDP of buffer.

// CalibrationParams are the Table 1 network parameters.
var CalibrationParams = struct {
	LinkSpeed units.Rate
	MinRTT    units.Duration
	Senders   int
	MeanOn    units.Duration
	MeanOff   units.Duration
	BufferBDP float64
	Delta     float64
}{
	LinkSpeed: 32 * units.Mbps,
	MinRTT:    150 * units.Millisecond,
	Senders:   2,
	MeanOn:    units.Second,
	MeanOff:   units.Second,
	BufferBDP: 5,
	Delta:     1,
}

// calibrationTaoSpec trains a Tao on exactly the Table 1 network.
func calibrationTaoSpec() TaoSpec {
	p := CalibrationParams
	cfg := dumbbellTraining(p.LinkSpeed, p.LinkSpeed, p.MinRTT, p.MinRTT, p.Senders, p.Senders, p.BufferBDP)
	cfg.MeanOn, cfg.MeanOff, cfg.Delta = p.MeanOn, p.MeanOff, p.Delta
	return TaoSpec{Name: "Tao-calibration", Seed: 0x0e1, Cfg: cfg}
}

// calibrationNetwork is the Table 1 testing network.
func calibrationNetwork(e Effort) scenario.Spec {
	p := CalibrationParams
	tmpl := testDumbbell(e, p.LinkSpeed, p.MinRTT)
	tmpl.BufferBDP, tmpl.MeanOn, tmpl.MeanOff = p.BufferBDP, p.MeanOn, p.MeanOff
	return tmpl
}

// CalibrationRow is one protocol's Figure 1 point: median throughput
// and queueing delay with 1-sigma spreads.
type CalibrationRow struct {
	Protocol string // protocol name
	stats.Summary
	// MeanObjective is the §3.2 objective averaged over flows and
	// replicas (using total delay, as in training).
	MeanObjective float64
}

// CalibrationResult is the Figure 1 dataset.
type CalibrationResult struct {
	Rows []CalibrationRow // one row per protocol
}

// RunCalibration trains the calibration Tao and evaluates all four
// protocols.
func RunCalibration(e Effort, log func(string, ...any)) *CalibrationResult {
	p := CalibrationParams
	tree := calibrationTaoSpec().Train(e, log)

	tmpl := calibrationNetwork(e)
	protocols := []Protocol{
		taoProtocol("Tao", tree, remycc.AllSignals()),
		cubicProtocol(),
		cubicSfqCoDelProtocol(),
	}

	res := &CalibrationResult{}
	for _, proto := range protocols {
		results := evalPoint(e, proto, tmpl, p.Senders, testRoot(e, "calibration")).on()
		row := CalibrationRow{Protocol: proto.Name, Summary: summarize(results)}
		var objs []float64
		for _, r := range results {
			objs = append(objs, stats.Objective(r.Throughput, r.Delay, p.Delta))
		}
		row.MeanObjective = stats.Mean(objs)
		res.Rows = append(res.Rows, row)
	}

	// Omniscient reference: proportionally fair expectation, no
	// queueing.
	onProb := p.MeanOn.Seconds() / (p.MeanOn.Seconds() + p.MeanOff.Seconds())
	sys := omniscient.Dumbbell(p.LinkSpeed, p.MinRTT, p.Senders, onProb)
	omniTpt := sys.ExpectedThroughput(0)
	omniDelay := sys.Delay(0)
	res.Rows = append(res.Rows, CalibrationRow{
		Protocol: "Omniscient",
		Summary: stats.Summary{
			MedianTptBps:   float64(omniTpt),
			MedianDelaySec: 0, // no queueing delay
			N:              1,
		},
		MeanObjective: stats.Objective(omniTpt, omniDelay, p.Delta),
	})
	return res
}

// OmniscientTpt returns the omniscient reference throughput for the
// calibration network (exported for EXPERIMENTS.md checks).
func (r *CalibrationResult) OmniscientTpt() float64 {
	for _, row := range r.Rows {
		if row.Protocol == "Omniscient" {
			return row.MedianTptBps
		}
	}
	return 0
}

// Row returns the named row, or nil.
func (r *CalibrationResult) Row(name string) *CalibrationRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Headlines reports how far the Tao lands above Cubic on the objective
// and the share of the omniscient throughput it reaches.
func (r *CalibrationResult) Headlines() []Headline {
	tao, cub, omni := r.Row("Tao"), r.Row("Cubic"), r.Row("Omniscient")
	if tao == nil || cub == nil || omni == nil {
		return nil
	}
	out := []Headline{{"tao-minus-cubic-obj", tao.MeanObjective - cub.MeanObjective}}
	return appendRatio(out, "tao-over-omniscient-tpt", tao.MedianTptBps, omni.MedianTptBps)
}

// Table renders the Figure 1 dataset.
func (r *CalibrationResult) Table() string {
	header := []string{"protocol", "median tpt (Mbps)", "median queue delay (ms)", "tpt sigma", "delay sigma (ms)", "objective"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Protocol,
			fmt.Sprintf("%.2f", row.MedianTptBps/1e6),
			fmt.Sprintf("%.1f", row.MedianDelaySec*1e3),
			fmt.Sprintf("%.2f", row.StdTptBps/1e6),
			fmt.Sprintf("%.1f", row.StdDelaySec*1e3),
			fmt.Sprintf("%.3f", row.MeanObjective),
		})
	}
	return renderTable(header, rows)
}
