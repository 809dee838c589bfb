package core

import (
	"fmt"
	"strings"

	"learnability/internal/plot"
)

// ASCII renderings of Figures 6 and 8 (cmd/learnability -plot);
// Sweep.Plot renders Figures 2–4.

// Plot renders the Figure 6 equal-speed locus.
func (r *StructureResult) Plot() string {
	var series []plot.Series
	for _, s := range r.Series {
		series = append(series, plot.Series{Name: s.Protocol, X: r.SpeedsMbps, Y: s.EqualTptMbps})
	}
	return plot.Chart("Figure 6: flow-1 throughput vs (equal) link speed", series,
		plot.Options{Width: 72, Height: 18, LogX: true,
			XLabel: "link speed (Mbps)", YLabel: "flow-1 throughput (Mbps)"})
}

// Plot renders both Figure 8 queue traces.
func (r *TimeDomainResult) Plot() string {
	var b strings.Builder
	for _, tr := range r.Traces {
		y := make([]float64, len(tr.QueuePkts))
		for i, v := range tr.QueuePkts {
			y[i] = float64(v)
		}
		series := []plot.Series{{Name: "queue (packets)", X: tr.SampleSec, Y: y}}
		if len(tr.DropSec) > 0 {
			dy := make([]float64, len(tr.DropSec))
			series = append(series, plot.Series{Name: "drops (at y=0)", X: tr.DropSec, Y: dy})
		}
		b.WriteString(plot.Chart(fmt.Sprintf("Figure 8: %s (TCP cross-traffic on 5s-10s)", tr.Protocol),
			series, plot.Options{Width: 75, Height: 14, XLabel: "time (s)"}))
		b.WriteString("\n")
	}
	return b.String()
}
