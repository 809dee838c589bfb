// Command remyeval evaluates a trained Tao protocol (whisker-tree
// JSON from remytrain) on a testing sweep, alongside the TCP
// baselines, and prints throughput, delay, and the paper's objective
// per point.
//
// Example:
//
//	remyeval -tree tao10x.json -speed-min 1 -speed-max 1000 -points 9
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"learnability/cmd/internal/scenflags"
	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/netsim"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/stats"
	"learnability/internal/telemetry"
	"learnability/internal/units"
)

// pktRecord is one packet lifecycle event in the -trace JSONL stream,
// tagged with enough sweep context (protocol, speed point, replica) to
// slice the file without cross-referencing the table output.
type pktRecord struct {
	Kind   string  `json:"kind"`
	T      float64 `json:"t"`
	Proto  string  `json:"proto"`
	Mbps   float64 `json:"mbps"`
	Rep    int     `json:"rep"`
	Link   int     `json:"link"`
	Flow   int     `json:"flow"`
	Seq    int64   `json:"seq"`
	ACK    bool    `json:"ack,omitempty"`
	CE     bool    `json:"ce,omitempty"`
	QLen   int     `json:"qlen"`
	QBytes int     `json:"qbytes"`
}

// ccRecord is one per-ACK congestion-control observation of a traced
// Tao sender: which whisker fired and the state its action produced.
type ccRecord struct {
	Kind    string        `json:"kind"`
	T       float64       `json:"t"`
	Proto   string        `json:"proto"`
	Mbps    float64       `json:"mbps"`
	Rep     int           `json:"rep"`
	Flow    int           `json:"flow"`
	Whisker int           `json:"whisker"`
	Cwnd    float64       `json:"cwnd"`
	PaceSec float64       `json:"pace_s"`
	Memory  remycc.Vector `json:"memory"`
}

// The command line: the scenario flags shared with remytrain, then
// what only evaluation has — the sweep, its budget, and tracing.
// Package-level so the flag test sees the very set main parses.
var (
	scen = scenflags.Register(flag.CommandLine)

	treePath  = flag.String("tree", "", "whisker-tree JSON (required)")
	speedMin  = flag.Float64("speed-min", 10, "sweep start (Mbps)")
	speedMax  = flag.Float64("speed-max", 100, "sweep end (Mbps)")
	points    = flag.Int("points", 5, "sweep points (log-spaced)")
	senders   = flag.Int("senders", 2, "number of senders (dumbbell only; the other topologies fix the flow count)")
	dur       = flag.Float64("duration", 30, "simulated seconds per run")
	replicas  = flag.Int("replicas", 4, "runs per point")
	seed      = flag.Uint64("seed", 1, "evaluation seed")
	traceF    = flag.String("trace", "", "dump per-packet events (enqueue, dequeue, drops, CE marks, deliver) and per-ACK Tao whisker decisions as JSONL to this file; narrow the sweep (-points 1 -replicas 1 -duration 1) or expect a large file. Tracing never changes results")
	traceFlws = flag.String("trace-flows", "", "comma-separated flow indices to trace (e.g. 0,1); empty traces every flow")
)

func main() {
	flag.Parse()

	if *treePath == "" {
		fmt.Fprintln(os.Stderr, "remyeval: -tree is required")
		os.Exit(2)
	}
	tmpl, err := runTemplate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "remyeval:", err)
		os.Exit(2)
	}
	nFlows := tmpl.Topology.FlowCount(*senders)
	data, err := os.ReadFile(*treePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "read:", err)
		os.Exit(1)
	}
	var tree remycc.Tree
	if err := json.Unmarshal(data, &tree); err != nil {
		fmt.Fprintln(os.Stderr, "parse:", err)
		os.Exit(1)
	}

	var journal *telemetry.Journal
	var traceSet map[int]bool // nil = every flow
	if *traceF != "" {
		journal, err = telemetry.OpenJournal(*traceF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "remyeval:", err)
			os.Exit(2)
		}
		defer func() {
			if err := journal.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "remyeval: trace journal:", err)
			}
		}()
		if *traceFlws != "" {
			traceSet = map[int]bool{}
			for _, f := range strings.Split(*traceFlws, ",") {
				f = strings.TrimSpace(f)
				if f == "" {
					continue
				}
				n, err := strconv.Atoi(f)
				if err != nil || n < 0 {
					fmt.Fprintf(os.Stderr, "remyeval: bad -trace-flows entry %q\n", f)
					os.Exit(2)
				}
				traceSet[n] = true
			}
		}
	}
	traced := func(flow int) bool { return traceSet == nil || traceSet[flow] }

	protos := []struct {
		name string
		mk   func() cc.Algorithm
	}{
		{"Tao", func() cc.Algorithm { return remycc.New(&tree) }},
		{"Cubic", func() cc.Algorithm { return cubic.New() }},
		{"NewReno", func() cc.Algorithm { return newreno.New() }},
	}

	fmt.Printf("%-12s %-10s %12s %12s %10s\n", "speed(Mbps)", "protocol", "tpt(Mbps)", "delay(ms)", "objective")
	for i := 0; i < *points; i++ {
		frac := 0.0
		if *points > 1 {
			frac = float64(i) / float64(*points-1)
		}
		mbps := *speedMin * math.Pow(*speedMax / *speedMin, frac)
		for _, p := range protos {
			var tpts, delays, objs []float64
			root := rng.New(*seed).Split(p.name).SplitN("pt", i)
			for rep := 0; rep < *replicas; rep++ {
				spec := tmpl
				spec.LinkSpeed = units.Rate(mbps) * units.Mbps
				spec.Seed = root.SplitN("rep", rep)
				for s := 0; s < nFlows; s++ {
					alg := p.mk()
					// Traced Tao senders also journal which whisker fired
					// per ACK; the baselines have no whisker tree, so only
					// the packet plane observes them.
					if journal != nil && traced(s) {
						if rc, ok := alg.(*remycc.RemyCC); ok {
							proto, mbps, rep, flow := p.name, mbps, rep, s
							rc.SetTrace(func(te remycc.TraceEntry) {
								journal.Emit(ccRecord{
									Kind:    "cc",
									T:       te.Time.Seconds(),
									Proto:   proto,
									Mbps:    mbps,
									Rep:     rep,
									Flow:    flow,
									Whisker: te.Whisker,
									Cwnd:    te.Cwnd,
									PaceSec: te.Pace.Seconds(),
									Memory:  te.Memory,
								})
							})
						}
					}
					spec.Senders = append(spec.Senders, scenario.Sender{Alg: alg, Delta: scen.Delta()})
				}
				if journal != nil {
					proto, mbps, rep := p.name, mbps, rep
					spec.Trace = func(ev netsim.PacketEvent) {
						if !traced(ev.Flow) {
							return
						}
						journal.Emit(pktRecord{
							Kind:   ev.Kind.String(),
							T:      ev.Time.Seconds(),
							Proto:  proto,
							Mbps:   mbps,
							Rep:    rep,
							Link:   ev.Link,
							Flow:   ev.Flow,
							Seq:    ev.Seq,
							ACK:    ev.ACK,
							CE:     ev.CE,
							QLen:   ev.QueueLen,
							QBytes: ev.QueueBytes,
						})
					}
				}
				results, err := scenario.Run(spec)
				if err != nil {
					fmt.Fprintln(os.Stderr, "remyeval:", err)
					os.Exit(1)
				}
				for _, r := range results {
					if r.OnTime == 0 {
						continue
					}
					tpts = append(tpts, float64(r.Throughput)/1e6)
					delays = append(delays, r.Delay.Seconds()*1e3)
					objs = append(objs, stats.Objective(r.Throughput, r.Delay, scen.Delta()))
				}
			}
			fmt.Printf("%-12.2f %-10s %12.3f %12.1f %10.3f\n",
				mbps, p.name, stats.Mean(tpts), stats.Mean(delays), stats.Mean(objs))
		}
	}
}

// runTemplate is the spec every run starts from: the scenario flags'
// template, lasting -duration.
func runTemplate() (scenario.Spec, error) {
	tmpl, err := scen.Template()
	if err != nil {
		return tmpl, err
	}
	tmpl.Duration, err = scenflags.Duration("-duration", *dur)
	return tmpl, err
}
