package core

import (
	"fmt"
	"io"

	"learnability/internal/rng"
	"learnability/internal/stats"
	"learnability/internal/units"
)

// Unified-protocol experiment (extension). The paper's conclusion asks:
// "can we tractably synthesize a single computer-generated protocol
// that outperforms human-generated incumbents over a wide range of
// topologies, link speeds, propagation delays, and degrees of
// multiplexing simultaneously?" (§5). This experiment trains one Tao
// on a joint distribution spanning all three dumbbell axes at once and
// tests it against Cubic and Cubic-over-sfqCoDel on random draws from
// an even wider distribution, reporting per-draw normalized objectives
// and the win rate.

// UnifiedTrainingRanges is the joint training distribution.
var UnifiedTrainingRanges = struct {
	SpeedMin, SpeedMax     units.Rate
	RTTMin, RTTMax         units.Duration
	SendersMin, SendersMax int
}{
	SpeedMin: 2 * units.Mbps, SpeedMax: 200 * units.Mbps,
	RTTMin: 50 * units.Millisecond, RTTMax: 250 * units.Millisecond,
	SendersMin: 1, SendersMax: 20,
}

func unifiedTaoSpec() TaoSpec {
	r := UnifiedTrainingRanges
	return TaoSpec{Name: "Tao-unified", Seed: 0x0ea, Cfg: dumbbellTraining(
		r.SpeedMin, r.SpeedMax, r.RTTMin, r.RTTMax, r.SendersMin, r.SendersMax, 5)}
}

// UnifiedRow is one random testing draw.
type UnifiedRow struct {
	SpeedMbps float64 // drawn link speed
	RTTMs     float64 // drawn minimum RTT
	Senders   int     // drawn sender count
	// Normalized objective per protocol (omniscient = 0).
	TaoObj, CubicObj, SfqObj float64
}

// UnifiedResult is the extension experiment's dataset.
type UnifiedResult struct {
	Rows []UnifiedRow // one row per testing draw
}

// RunUnified trains the unified Tao and evaluates random draws. The
// testing distribution extends beyond the training ranges by 2x on
// each side of the speed axis and down to 20 ms RTT, so some draws sit
// outside the designer's model (as the paper's framing demands).
func RunUnified(e Effort, log func(string, ...any)) *UnifiedResult {
	protocols := []Protocol{unifiedTaoSpec().protocol(e, log), cubicProtocol(), cubicSfqCoDelProtocol()}

	res := &UnifiedResult{}
	draws := e.SweepPoints * 2
	r := rng.New(e.Seed).Split("unified")
	for d := 0; d < draws; d++ {
		speed := units.Rate(r.LogUniform(1e6, 400e6))
		minRTT := units.Duration(r.Uniform(20, 300)) * units.Millisecond
		senders := r.IntRange(1, 30)
		objs := normalizedObjectives(e, protocols, testDumbbell(e, speed, minRTT), senders,
			fmt.Sprintf("unified-%d", d))
		res.Rows = append(res.Rows, UnifiedRow{
			SpeedMbps: float64(speed) / 1e6,
			RTTMs:     minRTT.Milliseconds(),
			Senders:   senders,
			TaoObj:    objs[0], CubicObj: objs[1], SfqObj: objs[2],
		})
	}
	return res
}

// WinRateVsCubic reports the fraction of draws where the unified Tao's
// objective beats Cubic's.
func (r *UnifiedResult) WinRateVsCubic() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	wins := 0
	for _, row := range r.Rows {
		if row.TaoObj > row.CubicObj {
			wins++
		}
	}
	return float64(wins) / float64(len(r.Rows))
}

// MeanObjectives reports the mean normalized objective per protocol.
func (r *UnifiedResult) MeanObjectives() (tao, cubic, sfq float64) {
	var a, b, c []float64
	for _, row := range r.Rows {
		a = append(a, row.TaoObj)
		b = append(b, row.CubicObj)
		c = append(c, row.SfqObj)
	}
	return stats.Mean(a), stats.Mean(b), stats.Mean(c)
}

// Headlines is empty: the extension has no claim of the paper's to
// summarise, and Table ends with its means and win rate.
func (r *UnifiedResult) Headlines() []Headline { return nil }

// Table renders the dataset.
func (r *UnifiedResult) Table() string {
	header := []string{"speed (Mbps)", "RTT (ms)", "senders", "Tao-unified", "Cubic", "Cubic/sfqCoDel"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", row.SpeedMbps),
			fmt.Sprintf("%.0f", row.RTTMs),
			fmt.Sprintf("%d", row.Senders),
			fmt.Sprintf("%+.3f", row.TaoObj),
			fmt.Sprintf("%+.3f", row.CubicObj),
			fmt.Sprintf("%+.3f", row.SfqObj),
		})
	}
	tao, cubic, sfq := r.MeanObjectives()
	summary := fmt.Sprintf("\nmeans: Tao-unified %+.3f  Cubic %+.3f  Cubic/sfqCoDel %+.3f   win rate vs Cubic: %.0f%%\n",
		tao, cubic, sfq, 100*r.WinRateVsCubic())
	return renderTable(header, rows) + summary
}

// WriteCSV dumps the dataset.
func (r *UnifiedResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			f(row.SpeedMbps), f(row.RTTMs), fmt.Sprintf("%d", row.Senders),
			f(row.TaoObj), f(row.CubicObj), f(row.SfqObj),
		})
	}
	return writeCSV(w, []string{"speed_mbps", "rtt_ms", "senders",
		"tao_unified_obj", "cubic_obj", "sfqcodel_obj"}, rows)
}
