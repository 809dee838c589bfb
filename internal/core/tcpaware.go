package core

import (
	"fmt"

	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/stats"
	"learnability/internal/units"
)

// TCP-awareness experiment (E6): Table 6 / Figure 7. Two Taos are
// trained on a 10 Mbps, 100 ms dumbbell with 2 BDP of buffering and
// near-continuous load: the TCP-naive Tao's model says all senders run
// the same protocol, while the TCP-aware Tao's model says that half
// the time one sender is AIMD TCP. Both are then tested homogeneously
// (2 x Tao) and in a mixed network (Tao vs NewReno).

func tcpAwareSpec(aware bool) TaoSpec {
	cfg := dumbbellTraining(9*units.Mbps, 11*units.Mbps, 100*units.Millisecond, 100*units.Millisecond, 2, 2, 2)
	cfg.MeanOn, cfg.MeanOff = 5*units.Second, 10*units.Millisecond
	if aware {
		cfg.AIMDProb = 0.5
		return TaoSpec{Name: "Tao-TCP-aware", Seed: 0x0e6, Cfg: cfg}
	}
	return TaoSpec{Name: "Tao-TCP-naive", Seed: 0x0e6, Cfg: cfg}
}

// tcpAwareNetwork is the Table 6b testing network: 10 Mbps, 100 ms,
// 2 BDP of buffer, near-continuous load.
func tcpAwareNetwork(e Effort) scenario.Spec {
	tmpl := testDumbbell(e, 10*units.Mbps, 100*units.Millisecond)
	tmpl.BufferBDP = 2
	tmpl.MeanOn, tmpl.MeanOff = 5*units.Second, 10*units.Millisecond
	return tmpl
}

// TCPAwareRow reports one sender group's outcome in one setting.
type TCPAwareRow struct {
	Setting  string // "homogeneous" or "vs-NewReno"
	Protocol string // which protocol this row measures
	stats.Summary
}

// TCPAwareResult is the Figure 7 dataset.
type TCPAwareResult struct {
	Rows []TCPAwareRow // one row per (setting, protocol)
}

// RunTCPAware trains both Taos and evaluates the Table 6b settings.
func RunTCPAware(e Effort, log func(string, ...any)) *TCPAwareResult {
	naive := flow{tcpAwareSpec(false).protocol(e, log).New, 1}
	aware := flow{tcpAwareSpec(true).protocol(e, log).New, 1}
	reno := flow{newRenoProtocol().New, 1}

	res := &TCPAwareResult{}
	settings := []mix{
		{"homogeneous", []flow{naive, naive}, []flowGroup{{"Tao-TCP-naive", []int{0, 1}}}},
		{"homogeneous", []flow{aware, aware}, []flowGroup{{"Tao-TCP-aware", []int{0, 1}}}},
		{"homogeneous", []flow{reno, reno}, []flowGroup{{"NewReno", []int{0, 1}}}},
		{"vs-NewReno", []flow{naive, reno},
			[]flowGroup{{"Tao-TCP-naive", []int{0}}, {"NewReno (vs naive)", []int{1}}}},
		{"vs-NewReno", []flow{aware, reno},
			[]flowGroup{{"Tao-TCP-aware", []int{0}}, {"NewReno (vs aware)", []int{1}}}},
	}

	for si, st := range settings {
		runs := runReplicas(e, tcpAwareNetwork(e), st.flows,
			rng.New(e.Seed).Split("tcpaware").SplitN("setting", si))
		for _, g := range st.groups {
			// Flow by flow, the order the published spreads were
			// summed in.
			var all []scenario.Result
			for _, fi := range g.flows {
				all = append(all, runs.on(fi)...)
			}
			res.Rows = append(res.Rows, TCPAwareRow{
				Setting:  st.label,
				Protocol: g.name,
				Summary:  summarize(all),
			})
		}
	}
	return res
}

// Row returns the row for (setting, protocol), or nil.
func (r *TCPAwareResult) Row(setting, protocol string) *TCPAwareRow {
	for i := range r.Rows {
		if r.Rows[i].Setting == setting && r.Rows[i].Protocol == protocol {
			return &r.Rows[i]
		}
	}
	return nil
}

// Headlines reports what TCP-awareness costs among Taos (queueing
// delay, aware over naive) and what it changes against NewReno
// (throughput, aware over naive).
func (r *TCPAwareResult) Headlines() []Headline {
	var out []Headline
	naive, aware := r.Row("homogeneous", "Tao-TCP-naive"), r.Row("homogeneous", "Tao-TCP-aware")
	if naive != nil && aware != nil {
		out = appendRatio(out, "aware-over-naive-homog-delay", aware.MedianDelaySec, naive.MedianDelaySec)
	}
	naive, aware = r.Row("vs-NewReno", "Tao-TCP-naive"), r.Row("vs-NewReno", "Tao-TCP-aware")
	if naive != nil && aware != nil {
		out = appendRatio(out, "aware-over-naive-vs-tcp-tpt", aware.MedianTptBps, naive.MedianTptBps)
	}
	return out
}

// Table renders the Figure 7 dataset.
func (r *TCPAwareResult) Table() string {
	header := []string{"setting", "protocol", "median tpt (Mbps)", "median queue delay (ms)"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Setting,
			row.Protocol,
			fmt.Sprintf("%.2f", row.MedianTptBps/1e6),
			fmt.Sprintf("%.1f", row.MedianDelaySec*1e3),
		})
	}
	return renderTable(header, rows)
}
