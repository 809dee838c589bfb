package core

import (
	"fmt"

	"learnability/internal/cc/remycc"
	"learnability/internal/netsim"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// Time-domain experiment (E7): Figure 8. A Tao sender (TCP-aware or
// TCP-naive, reusing the E6 protocols) shares the 10 Mbps / 100 ms /
// 2 BDP dumbbell with a contrived NewReno cross-sender that turns on at
// exactly t = 5 s and off at t = 10 s. The bottleneck queue occupancy
// is sampled over time and drop instants are recorded, both read off
// the run's packet-event stream.

// TimeDomainTrace is one protocol's panel of Figure 8.
type TimeDomainTrace struct {
	Protocol   string    // protocol name
	SampleSec  []float64 // sample times
	QueuePkts  []int     // queue occupancy in packets
	DropSec    []float64 // drop instants
	TaoTptMbps float64   // Tao goodput over the run
}

// TimeDomainResult holds both Figure 8 panels.
type TimeDomainResult struct {
	Traces []TimeDomainTrace // one panel per protocol
}

// RunTimeDomain produces the queue-occupancy traces for both Taos.
func RunTimeDomain(e Effort, log func(string, ...any)) *TimeDomainResult {
	naive := tcpAwareSpec(false).Train(e, log)
	aware := tcpAwareSpec(true).Train(e, log)

	res := &TimeDomainResult{}
	for _, cfg := range []struct {
		name string
		tree *remycc.Tree
	}{
		{"Tao-TCP-aware", aware},
		{"Tao-TCP-naive", naive},
	} {
		trace := TimeDomainTrace{Protocol: cfg.name}
		spec := tcpAwareNetwork(e) // its on/off means go unused: both workloads are set below
		spec.Duration = 15 * units.Second
		spec.Seed = rng.New(e.Seed).Split("timedomain").Split(cfg.name)
		spec.Senders = []scenario.Sender{
			{
				Alg:      remycc.New(cfg.tree),
				Delta:    1,
				Workload: workload.AlwaysOn{},
			},
			{
				Alg:   newRenoProtocol().New(),
				Delta: 1,
				Workload: &workload.Deterministic{
					InitialOn: false,
					Transitions: []workload.Transition{
						{At: units.Time(5 * units.Second), On: true},
						{At: units.Time(10 * units.Second), On: false},
					},
				},
			},
		}
		// The bottleneck is link 0. Every change of its occupancy is an
		// event carrying the depth it left, so the last one seen is the
		// queue's length at each 50 ms sample.
		queued := 0
		spec.Trace = func(ev netsim.PacketEvent) {
			if ev.Link != 0 {
				return
			}
			queued = ev.QueueLen
			if ev.Kind == netsim.TraceDropTail || ev.Kind == netsim.TraceDropAQM {
				trace.DropSec = append(trace.DropSec, ev.Time.Seconds())
			}
		}
		spec.ProbeInterval = 50 * units.Millisecond
		spec.Probe = func(now units.Time) {
			trace.SampleSec = append(trace.SampleSec, now.Seconds())
			trace.QueuePkts = append(trace.QueuePkts, queued)
		}
		results := scenario.MustRun(spec)
		trace.TaoTptMbps = float64(results[0].Throughput) / 1e6
		res.Traces = append(res.Traces, trace)
	}
	return res
}

// Trace returns the named trace, or nil.
func (r *TimeDomainResult) Trace(name string) *TimeDomainTrace {
	for i := range r.Traces {
		if r.Traces[i].Protocol == name {
			return &r.Traces[i]
		}
	}
	return nil
}

// MeanQueueBetween averages queue occupancy over samples in [lo, hi)
// seconds.
func (tr *TimeDomainTrace) MeanQueueBetween(lo, hi float64) float64 {
	sum, n := 0.0, 0
	for i, t := range tr.SampleSec {
		if t >= lo && t < hi {
			sum += float64(tr.QueuePkts[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Headlines reports each panel's mean bottleneck occupancy while the
// NewReno cross-sender is on.
func (r *TimeDomainResult) Headlines() []Headline {
	var out []Headline
	for _, name := range []string{"Tao-TCP-aware", "Tao-TCP-naive"} {
		if tr := r.Trace(name); tr != nil {
			out = append(out, Headline{name + "-queue-during-tcp", tr.MeanQueueBetween(5, 10)})
		}
	}
	return out
}

// Table renders a compact summary of both panels (the full series is
// available programmatically and via cmd/learnability -csv).
func (r *TimeDomainResult) Table() string {
	header := []string{"protocol", "mean queue [0,5)s", "mean queue [5,10)s", "mean queue [10,15)s", "drops", "Tao tpt (Mbps)"}
	var rows [][]string
	for _, tr := range r.Traces {
		rows = append(rows, []string{
			tr.Protocol,
			fmt.Sprintf("%.1f", tr.MeanQueueBetween(0, 5)),
			fmt.Sprintf("%.1f", tr.MeanQueueBetween(5, 10)),
			fmt.Sprintf("%.1f", tr.MeanQueueBetween(10, 15)),
			fmt.Sprintf("%d", len(tr.DropSec)),
			fmt.Sprintf("%.2f", tr.TaoTptMbps),
		})
	}
	return renderTable(header, rows)
}
