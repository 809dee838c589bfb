package core

import (
	"fmt"

	"learnability/internal/cc"
	"learnability/internal/cc/remycc"
	"learnability/internal/remy"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/units"
)

// Sender-diversity experiment (E8): Table 7 / Figure 9. A
// throughput-sensitive sender (delta = 0.1) and a delay-sensitive
// sender (delta = 10) are trained either naively (each against copies
// of itself) or co-optimized (each trained knowing 0-2 senders of the
// other type share the link), then tested alone and together on a
// 10 Mbps, 100 ms, no-drop dumbbell with 1 s on/off workload.

// Diversity deltas from §4.6.
const (
	TptSenderDelta = 0.1
	DelSenderDelta = 10.0
)

func diversityBaseCfg(delta float64) remy.Config {
	cfg := dumbbellTraining(10*units.Mbps, 10*units.Mbps, 100*units.Millisecond, 100*units.Millisecond, 1, 2, 0)
	cfg.Buffering = scenario.NoDrop
	cfg.Delta = delta
	return cfg
}

// trainDiversityPair returns the (tpt, del) trees. Naive trees are
// trained homogeneously. Co-optimized trees are produced by alternate
// optimization: each protocol retrained against the other's current
// tree, twice, maximizing the joint objective (the paper's
// co-optimization).
func trainDiversityPair(e Effort, coopt bool, log func(string, ...any)) (tpt, del *remycc.Tree) {
	trainOne := func(name string, delta float64, other *remycc.Tree, otherDelta float64, round int) *remycc.Tree {
		cfg := diversityBaseCfg(delta)
		if other != nil {
			cfg.Other = other
			cfg.OtherDelta = otherDelta
			cfg.OtherCountMin = 0
			cfg.OtherCountMax = 2
			cfg.IncludeOtherInObjective = true
		}
		return TaoSpec{Name: fmt.Sprintf("%s-r%d", name, round), Seed: 0x0e8, Cfg: cfg}.Train(e, log)
	}
	tpt = trainOne("Tao-tpt-naive", TptSenderDelta, nil, 0, 0)
	del = trainOne("Tao-del-naive", DelSenderDelta, nil, 0, 0)
	if !coopt {
		return tpt, del
	}
	// Alternate optimization, starting from the naive protocols.
	for round := 1; round <= 2; round++ {
		tpt = trainOne("Tao-tpt-coopt", TptSenderDelta, del, DelSenderDelta, round)
		del = trainOne("Tao-del-coopt", DelSenderDelta, tpt, TptSenderDelta, round)
	}
	return tpt, del
}

// DiversityRow is one (training, setting, sender) cell of Figure 9.
type DiversityRow struct {
	Training string  // "naive" or "co-optimized"
	Setting  string  // "alone" or "mixed"
	Sender   string  // "Tpt" or "Del"
	TptMbps  float64 // mean throughput
	QueueMs  float64 // mean queueing delay
}

// DiversityResult is the Figure 9 dataset.
type DiversityResult struct {
	Rows []DiversityRow // one row per (training, setting, sender)
}

// RunDiversity trains both pairs and evaluates the Table 7b settings.
func RunDiversity(e Effort, log func(string, ...any)) *DiversityResult {
	res := &DiversityResult{}
	for _, mode := range []struct {
		name  string
		coopt bool
	}{
		{"naive", false},
		{"co-optimized", true},
	} {
		tptTree, delTree := trainDiversityPair(e, mode.coopt, log)
		tpt := flow{func() cc.Algorithm { return remycc.New(tptTree) }, TptSenderDelta}
		del := flow{func() cc.Algorithm { return remycc.New(delTree) }, DelSenderDelta}

		tmpl := testDumbbell(e, 10*units.Mbps, 100*units.Millisecond)
		tmpl.Buffering = scenario.NoDrop
		for _, st := range []mix{
			// Alone: two senders of the same type (a homogeneous
			// network). Both networks draw the same seeds.
			{"alone", []flow{tpt, tpt}, []flowGroup{{"Tpt", []int{0, 1}}}},
			{"alone", []flow{del, del}, []flowGroup{{"Del", []int{0, 1}}}},
			// Mixed: one of each (Table 7b).
			{"mixed", []flow{tpt, del}, []flowGroup{{"Tpt", []int{0}}, {"Del", []int{1}}}},
		} {
			runs := runReplicas(e, tmpl, st.flows,
				rng.New(e.Seed).Split("diversity").Split(mode.name).Split(st.label))
			for _, g := range st.groups {
				if tptMbps, queueMs, ok := meanTptAndQueue(runs.on(g.flows...)); ok {
					res.Rows = append(res.Rows, DiversityRow{mode.name, st.label, g.name, tptMbps, queueMs})
				}
			}
		}
	}
	return res
}

// Row returns the cell for (training, setting, sender), or nil.
func (r *DiversityResult) Row(training, setting, sender string) *DiversityRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Training == training && row.Setting == setting && row.Sender == sender {
			return row
		}
	}
	return nil
}

// Headlines reports what co-optimization buys the delay-sensitive
// sender in the mixed network (queueing delay, naive over
// co-optimized) and what playing nice costs the throughput-sensitive
// sender alone (throughput, co-optimized over naive).
func (r *DiversityResult) Headlines() []Headline {
	var out []Headline
	naive, coopt := r.Row("naive", "mixed", "Del"), r.Row("co-optimized", "mixed", "Del")
	if naive != nil && coopt != nil {
		out = appendRatio(out, "del-delay-improvement-from-coopt", naive.QueueMs, coopt.QueueMs)
	}
	naive, coopt = r.Row("naive", "alone", "Tpt"), r.Row("co-optimized", "alone", "Tpt")
	if naive != nil && coopt != nil {
		out = appendRatio(out, "tpt-sender-cost-of-playing-nice", coopt.TptMbps, naive.TptMbps)
	}
	return out
}

// Table renders the Figure 9 dataset.
func (r *DiversityResult) Table() string {
	header := []string{"training", "setting", "sender", "tpt (Mbps)", "queue delay (ms)"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Training, row.Setting, row.Sender,
			fmt.Sprintf("%.2f", row.TptMbps),
			fmt.Sprintf("%.1f", row.QueueMs),
		})
	}
	return renderTable(header, rows)
}
