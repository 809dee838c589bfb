package core

import (
	"fmt"

	"learnability/internal/omniscient"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/stats"
	"learnability/internal/units"
)

// Structural-knowledge experiment (E5): Table 5 / Figures 5-6. A Tao
// trained on a simplified single-bottleneck model is compared, on the
// two-bottleneck parking-lot network, against a Tao trained with full
// knowledge of the two-bottleneck structure, plus Cubic,
// Cubic-over-sfqCoDel, and the omniscient proportionally fair locus.
// The reported quantity is the throughput of Flow 1, the flow crossing
// both bottlenecks.

// structureTaoSpec trains on 10–100 Mbps links with 1 BDP of buffer
// and a 300 ms round trip. Told the truth, the model is the parking
// lot itself (two 75 ms hops, three flows; the long flow's round trip
// is four hops); told there is one bottleneck, it is a two-sender
// dumbbell whose 150 ms one-way delay matches the two-hop path
// (Table 5).
func structureTaoSpec(twoBottlenecks bool) TaoSpec {
	spec := TaoSpec{Name: "Tao-one-bottleneck", Seed: 0x0e5, Cfg: dumbbellTraining(
		10*units.Mbps, 100*units.Mbps, 300*units.Millisecond, 300*units.Millisecond, 2, 2, 1)}
	if twoBottlenecks {
		spec.Name = "Tao-two-bottleneck"
		spec.Cfg.Topology = scenario.ParkingLot
		spec.Cfg.SendersMin, spec.Cfg.SendersMax = 3, 3
	}
	return spec
}

// StructureSeries is one protocol's Figure 6 curve: Flow 1 throughput
// as the swept link's speed varies.
type StructureSeries struct {
	Protocol string // protocol name
	// EqualTptMbps[i]: both links at SpeedsMbps[i].
	EqualTptMbps []float64
	// Fast100TptMbps[i]: slower link at SpeedsMbps[i], faster at 100.
	Fast100TptMbps []float64
}

// StructureResult is the Figure 6 dataset.
type StructureResult struct {
	SpeedsMbps []float64         // swept link speeds
	Series     []StructureSeries // one curve per protocol
}

// RunStructure trains both Taos and sweeps the parking-lot link
// speeds.
func RunStructure(e Effort, log func(string, ...any)) *StructureResult {
	protocols := []Protocol{
		structureTaoSpec(false).protocol(e, log),
		structureTaoSpec(true).protocol(e, log),
		cubicProtocol(),
		cubicSfqCoDelProtocol(),
	}

	res := &StructureResult{SpeedsMbps: logspace(10, 100, e.SweepPoints)}
	series := make([]StructureSeries, len(protocols)+1)
	for pi, p := range protocols {
		series[pi].Protocol = p.Name
	}
	series[len(protocols)].Protocol = "Omniscient"

	// flow1 is the mean throughput of the flow crossing both links.
	flow1 := func(p Protocol, r1, r2 units.Rate, label string) float64 {
		tmpl := scenario.Spec{
			Topology:   scenario.ParkingLot,
			LinkSpeed:  r1,
			LinkSpeeds: []units.Rate{r1, r2},
			MinRTT:     300 * units.Millisecond,
			Buffering:  scenario.FiniteDropTail,
			BufferBDP:  1,
			MeanOn:     units.Second,
			MeanOff:    units.Second,
			Duration:   e.TestDuration,
		}
		var tpts []float64
		for _, r := range evalPoint(e, p, tmpl, 3, rng.New(e.Seed).Split("structure").Split(label)).on(0) {
			tpts = append(tpts, float64(r.Throughput))
		}
		return stats.Mean(tpts)
	}

	for _, mbps := range res.SpeedsMbps {
		s := units.Rate(mbps) * units.Mbps
		for pi, p := range protocols {
			series[pi].EqualTptMbps = append(series[pi].EqualTptMbps,
				flow1(p, s, s, fmt.Sprintf("eq-%.1f", mbps))/1e6)
			series[pi].Fast100TptMbps = append(series[pi].Fast100TptMbps,
				flow1(p, s, 100*units.Mbps, fmt.Sprintf("f100-%.1f", mbps))/1e6)
		}
		// Omniscient locus: expected proportionally fair allocation of
		// the long flow under the on/off process.
		oi := len(protocols)
		sysEq := omniscient.ParkingLot(s, s, 75*units.Millisecond, 0.5)
		sysF1 := omniscient.ParkingLot(s, 100*units.Mbps, 75*units.Millisecond, 0.5)
		series[oi].EqualTptMbps = append(series[oi].EqualTptMbps,
			float64(sysEq.ExpectedThroughput(0))/1e6)
		series[oi].Fast100TptMbps = append(series[oi].Fast100TptMbps,
			float64(sysF1.ExpectedThroughput(0))/1e6)
	}
	res.Series = series
	return res
}

// MeanEqualTpt averages the named protocol's equal-speed curve (Mbps;
// 0 if the protocol is absent).
func (r *StructureResult) MeanEqualTpt(name string) float64 {
	for _, s := range r.Series {
		if s.Protocol == name {
			return stats.Mean(s.EqualTptMbps)
		}
	}
	return 0
}

// Headlines reports the long flow's mean equal-speed throughput under
// the Tao told of one bottleneck, relative to the Tao told of both and
// to Cubic.
func (r *StructureResult) Headlines() []Headline {
	one := r.MeanEqualTpt("Tao-one-bottleneck")
	out := appendRatio(nil, "one-bneck-over-two-bneck-tpt", one, r.MeanEqualTpt("Tao-two-bottleneck"))
	return appendRatio(out, "one-bneck-over-cubic-tpt", one, r.MeanEqualTpt("Cubic"))
}

// Table renders the Figure 6 dataset.
func (r *StructureResult) Table() string {
	header := []string{"slower link (Mbps)"}
	for _, s := range r.Series {
		header = append(header, s.Protocol+" [eq]", s.Protocol+" [fast=100]")
	}
	var rows [][]string
	for i, mbps := range r.SpeedsMbps {
		row := []string{fmt.Sprintf("%.1f", mbps)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.2f", s.EqualTptMbps[i]),
				fmt.Sprintf("%.2f", s.Fast100TptMbps[i]))
		}
		rows = append(rows, row)
	}
	return renderTable(header, rows)
}
