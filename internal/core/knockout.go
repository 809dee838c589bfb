package core

import (
	"fmt"
	"sort"

	"learnability/internal/cc/remycc"
	"learnability/internal/stats"
)

// Signal-knockout experiment (E9): §3.4. Five protocols are trained on
// the calibration network: one with all four congestion signals, and
// one for each signal removed. Each is then evaluated on the
// calibration testing scenario; the drop in objective measures the
// knocked-out signal's value.

// KnockoutRow is one protocol's outcome.
type KnockoutRow struct {
	Name          string  // protocol name
	Removed       string  // "" for the all-signals protocol
	MeanObjective float64 // §3.2 objective, averaged over replicas
	TptMbps       float64 // mean throughput
	DelayMs       float64 // mean total delay
}

// KnockoutResult is the §3.4 dataset.
type KnockoutResult struct {
	Rows []KnockoutRow // all-signals first, then one per removed signal
}

// RunKnockout trains the five protocols and evaluates them.
func RunKnockout(e Effort, log func(string, ...any)) *KnockoutResult {
	p := CalibrationParams
	variants := []struct {
		name    string
		removed string
		mask    remycc.SignalMask
	}{
		// The all-signals protocol is exactly the calibration Tao (same
		// name, so the trained tree is shared via the cache).
		{"Tao-calibration", "", remycc.AllSignals()},
		{"Tao-no-rec_ewma", "rec_ewma", remycc.AllSignals().Without(remycc.RecEWMA)},
		{"Tao-no-slow_rec_ewma", "slow_rec_ewma", remycc.AllSignals().Without(remycc.SlowRecEWMA)},
		{"Tao-no-send_ewma", "send_ewma", remycc.AllSignals().Without(remycc.SendEWMA)},
		{"Tao-no-rtt_ratio", "rtt_ratio", remycc.AllSignals().Without(remycc.RTTRatio)},
	}

	res := &KnockoutResult{}
	for _, v := range variants {
		spec := calibrationTaoSpec()
		spec.Name = v.name
		spec.Cfg.Mask = v.mask

		var objs, tpts, delays []float64
		for _, r := range evalPoint(e, spec.protocol(e, log), calibrationNetwork(e), p.Senders, testRoot(e, "knockout")).on() {
			objs = append(objs, stats.Objective(r.Throughput, r.Delay, p.Delta))
			tpts = append(tpts, float64(r.Throughput)/1e6)
			delays = append(delays, r.Delay.Seconds()*1e3)
		}
		res.Rows = append(res.Rows, KnockoutRow{
			Name:          v.name,
			Removed:       v.removed,
			MeanObjective: stats.Mean(objs),
			TptMbps:       stats.Mean(tpts),
			DelayMs:       stats.Mean(delays),
		})
	}
	return res
}

// Row returns the row for the protocol missing the given signal (""
// for all-signals), or nil.
func (r *KnockoutResult) Row(removed string) *KnockoutRow {
	for i := range r.Rows {
		if r.Rows[i].Removed == removed {
			return &r.Rows[i]
		}
	}
	return nil
}

// MostValuableSignal returns the removed-signal name whose knockout
// hurt the objective most.
func (r *KnockoutResult) MostValuableSignal() string {
	type harm struct {
		name string
		loss float64
	}
	all := r.Row("")
	if all == nil {
		return ""
	}
	var hs []harm
	for _, row := range r.Rows {
		if row.Removed == "" {
			continue
		}
		hs = append(hs, harm{row.Removed, all.MeanObjective - row.MeanObjective})
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].loss > hs[j].loss })
	if len(hs) == 0 {
		return ""
	}
	return hs[0].name
}

// Headlines reports the objective lost by knocking out rec_ewma.
func (r *KnockoutResult) Headlines() []Headline {
	all, rec := r.Row(""), r.Row("rec_ewma")
	if all == nil || rec == nil {
		return nil
	}
	return []Headline{{"value-of-rec-ewma", all.MeanObjective - rec.MeanObjective}}
}

// Table renders the §3.4 dataset.
func (r *KnockoutResult) Table() string {
	header := []string{"protocol", "signal removed", "mean objective", "tpt (Mbps)", "delay (ms)"}
	var rows [][]string
	for _, row := range r.Rows {
		removed := row.Removed
		if removed == "" {
			removed = "(none)"
		}
		rows = append(rows, []string{
			row.Name, removed,
			fmt.Sprintf("%.3f", row.MeanObjective),
			fmt.Sprintf("%.2f", row.TptMbps),
			fmt.Sprintf("%.1f", row.DelayMs),
		})
	}
	return renderTable(header, rows)
}
