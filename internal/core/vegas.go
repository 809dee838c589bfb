package core

import (
	"fmt"
	"io"
)

// Vegas squeeze-out demonstration. §4.5 motivates TCP-awareness with
// the conventional wisdom that delay-based protocols like Vegas
// "perform well when contending only against other flows of their own
// kind, but are squeezed out by the more-aggressive cross-traffic
// produced by traditional TCP". This auxiliary experiment reproduces
// that claim directly with our Vegas implementation on the same
// network as the TCP-awareness experiment, grounding the paper's
// premise before the Tao version of the question is asked.

// VegasRow is one sender's outcome in one setting.
type VegasRow struct {
	Setting  string  // "homogeneous" or "vs-NewReno"
	Protocol string  // protocol name
	TptMbps  float64 // mean throughput
	QueueMs  float64 // mean queueing delay
}

// VegasResult is the squeeze-out dataset.
type VegasResult struct {
	Rows []VegasRow // one row per (setting, sender)
}

// RunVegasSqueeze evaluates Vegas against itself and against NewReno
// on a 10 Mbps, 100 ms, 2 BDP dumbbell with near-continuous load.
func RunVegasSqueeze(e Effort, log func(string, ...any)) *VegasResult {
	res := &VegasResult{}
	vegas, reno := flow{vegasProtocol().New, 1}, flow{newRenoProtocol().New, 1}
	for si, st := range []mix{
		{"homogeneous", []flow{vegas, vegas}, []flowGroup{{"Vegas", []int{0, 1}}}},
		{"vs-NewReno", []flow{vegas, reno}, []flowGroup{{"Vegas", []int{0}}, {"NewReno", []int{1}}}},
	} {
		runs := runReplicas(e, tcpAwareNetwork(e), st.flows, testRoot(e, "vegas").SplitN("setting", si))
		for _, g := range st.groups {
			if tpt, queue, ok := meanTptAndQueue(runs.on(g.flows...)); ok {
				res.Rows = append(res.Rows, VegasRow{st.label, g.name, tpt, queue})
			}
		}
	}
	return res
}

// Row returns the row for (setting, protocol), or nil.
func (r *VegasResult) Row(setting, protocol string) *VegasRow {
	for i := range r.Rows {
		if r.Rows[i].Setting == setting && r.Rows[i].Protocol == protocol {
			return &r.Rows[i]
		}
	}
	return nil
}

// Headlines reports Vegas's throughput against a NewReno competitor as
// a fraction of that competitor's.
func (r *VegasResult) Headlines() []Headline {
	vegas, reno := r.Row("vs-NewReno", "Vegas"), r.Row("vs-NewReno", "NewReno")
	if vegas == nil || reno == nil {
		return nil
	}
	return appendRatio(nil, "vegas-share-vs-newreno", vegas.TptMbps, reno.TptMbps)
}

// Table renders the dataset.
func (r *VegasResult) Table() string {
	header := []string{"setting", "protocol", "tpt (Mbps)", "queue delay (ms)"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Setting, row.Protocol,
			fmt.Sprintf("%.2f", row.TptMbps), fmt.Sprintf("%.1f", row.QueueMs)})
	}
	return renderTable(header, rows)
}

// WriteCSV dumps the dataset.
func (r *VegasResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Setting, row.Protocol,
			f(row.TptMbps), f(row.QueueMs)})
	}
	return writeCSV(w, []string{"setting", "protocol", "tpt_mbps", "queue_delay_ms"}, rows)
}
