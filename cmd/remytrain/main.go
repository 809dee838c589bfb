// Command remytrain runs the Remy protocol-design search over a
// training-scenario distribution and writes the resulting Tao
// protocol's whisker tree as JSON.
//
// Example (the paper's Tao-10x from Table 2a):
//
//	remytrain -speed-min 10 -speed-max 100 -rtt 150 -senders 2 \
//	          -buffer-bdp 5 -generations 4 -o tao10x.json
//
// Training distributes over remyshardd daemons (-remotes
// host:port,...; one lane and one connection per distinct address,
// each batch cut into one job per lane); output is byte-identical to
// the in-process search either way (docs/EXPERIMENTS.md, "Multi-machine
// training").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"learnability/cmd/internal/scenflags"
	"learnability/internal/cc/remycc"
	"learnability/internal/prof"
	"learnability/internal/remy"
	"learnability/internal/remy/shardnet"
	"learnability/internal/scenario"
	"learnability/internal/telemetry"
	"learnability/internal/units"
)

// The command line: the scenario flags shared with remyeval, then
// what only training has — the ranges it draws from, the search
// budget, and where evaluations run. Package-level so the flag test
// sees the very set main parses.
var (
	scen = scenflags.Register(flag.CommandLine)

	speedMin   = flag.Float64("speed-min", 10, "minimum link speed (Mbps), drawn log-uniformly; multi-link topologies draw each link from this range")
	speedMax   = flag.Float64("speed-max", 100, "maximum link speed (Mbps)")
	rttMax     = flag.Float64("rtt-max", 0, "upper end of the minimum-RTT range (ms); 0 = same as -rtt")
	sendersMin = flag.Int("senders-min", 2, "minimum number of senders")
	sendersMax = flag.Int("senders", 2, "maximum number of senders")
	aimdProb   = flag.Float64("aimd-prob", 0, "probability one sender is AIMD TCP (TCP-aware training)")
	knockout   = flag.String("knockout", "", "signal to remove: "+signalNames())
	gens       = flag.Int("generations", 3, "whisker-split rounds")
	passes     = flag.Int("passes", 2, "action-optimization passes per generation")
	moves      = flag.Int("moves", 6, "hill-climb moves per whisker")
	replicas   = flag.Int("replicas", 4, "scenario draws per evaluation")
	dur        = flag.Float64("duration", 12, "simulated seconds per training run")
	seed       = flag.Uint64("seed", 1, "training seed")
	workers    = flag.Int("workers", 0, "parallel simulations (0 = NumCPU)")
	shardTmo   = flag.Duration("shard-timeout", 0, "drop a -remotes lane's connection and requeue its jobs after this much silence (e.g. 1m; worker heartbeats reset it, so it bounds silence, not job length); 0 waits forever — set it to survive hung (not just crashed) workers")
	remotes    = flag.String("remotes", "", "comma-separated remyshardd worker addresses (host:port,...): one TCP shard lane, one connection and one job per batch for each distinct address. An address named k times takes k shares of every batch; a daemon runs its job at its own -workers. Empty trains in process. Output stays byte-identical to in-process training")
	evalCache  = flag.Int("eval-cache", 0, "in-process slot-cache capacity in entries (0 = default, negative disables); repeated (config, draw, tree) evaluations are served from memory, byte-identical to simulating")
	evalDir    = flag.String("eval-cache-dir", "", "spill the in-process slot cache to this directory and reload on the next run, so warm reruns skip simulation entirely")
	journalF   = flag.String("telemetry", "", "write one JSONL generation record (wall time, score delta, slots, cache and fabric counters) per whisker-split round to this file; fold it with scripts/telemetry-summary")
	metricsF   = flag.String("metrics", "", "serve live metrics on this address (e.g. :9090): GET /metrics for Prometheus text, ?format=json for JSON")
	ppAddr     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) while training")
	cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the training run to this file")
	memProf    = flag.String("memprofile", "", "write a heap profile to this file after training")
	out        = flag.String("o", "tao.json", "output file for the whisker tree")
	verbose    = flag.Bool("v", true, "stream search progress")
)

func main() {
	flag.Parse()

	stopProf, err := prof.Start(*ppAddr, *cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "remytrain:", err)
		os.Exit(2)
	}
	defer stopProf()

	mask, err := knockoutMask(*knockout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "remytrain:", err)
		os.Exit(2)
	}

	sendersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "senders" || f.Name == "senders-min" {
			sendersSet = true
		}
	})

	tmpl, err := scen.Template()
	if err != nil {
		fmt.Fprintln(os.Stderr, "remytrain:", err)
		os.Exit(2)
	}
	if tmpl.Topology.Kind != scenario.KindDumbbell {
		// Every other family fixes its flow count (long flow plus cross
		// traffic, or the fat-tree placement), so an explicit -senders
		// would be silently ignored — reject it.
		if sendersSet {
			fmt.Fprintf(os.Stderr, "remytrain: -senders/-senders-min apply to -topology dumbbell only (a %v fixes its flow count)\n", tmpl.Topology.Kind)
			os.Exit(2)
		}
		*sendersMin, *sendersMax = 0, 0
	}
	runDur, rttHi, err := durations(tmpl.MinRTT)
	if err != nil {
		fmt.Fprintln(os.Stderr, "remytrain:", err)
		os.Exit(2)
	}
	cfg := remy.Config{
		Topology:          tmpl.Topology,
		LinkSpeedMin:      units.Rate(*speedMin) * units.Mbps,
		LinkSpeedMax:      units.Rate(*speedMax) * units.Mbps,
		MinRTTMin:         tmpl.MinRTT,
		MinRTTMax:         rttHi,
		SendersMin:        *sendersMin,
		SendersMax:        *sendersMax,
		AIMDProb:          *aimdProb,
		MeanOn:            tmpl.MeanOn,
		MeanOff:           tmpl.MeanOff,
		Buffering:         tmpl.Buffering,
		BufferBDP:         tmpl.BufferBDP,
		ECN:               tmpl.ECN,
		ECNThresholdBytes: tmpl.ECNThresholdBytes,
		VarRate:           tmpl.VarRate,
		Delta:             scen.Delta(),
		Mask:              mask,
		Duration:          runDur,
		Replicas:          *replicas,
	}

	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "remytrain:", err)
		os.Exit(2)
	}

	var remoteAddrs []string
	if *remotes != "" {
		for _, addr := range strings.Split(*remotes, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				remoteAddrs = append(remoteAddrs, addr)
			}
		}
	}

	tr := &remy.Trainer{
		Cfg:              cfg,
		Seed:             *seed,
		Workers:          *workers,
		ShardTimeout:     *shardTmo,
		Remotes:          remoteAddrs,
		DisableEvalCache: *evalCache < 0,
	}
	if *evalDir != "" {
		if *evalCache < 0 {
			fmt.Fprintln(os.Stderr, "remytrain: -eval-cache-dir needs the eval cache enabled (-eval-cache >= 0)")
			os.Exit(2)
		}
		c, err := shardnet.NewDiskCache(*evalDir, *evalCache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "remytrain:", err)
			os.Exit(2)
		}
		tr.EvalCache = c
	} else if *evalCache > 0 {
		tr.EvalCache = shardnet.NewCache(*evalCache)
	}
	if *verbose {
		tr.Log = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	if *metricsF != "" {
		tr.Metrics = telemetry.NewRegistry()
		addr, closeMetrics, err := telemetry.Serve(*metricsF, tr.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "remytrain:", err)
			os.Exit(2)
		}
		defer closeMetrics()
		fmt.Fprintf(os.Stderr, "remytrain: serving metrics on http://%s/metrics\n", addr)
	}
	if *journalF != "" {
		j, err := telemetry.OpenJournal(*journalF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "remytrain:", err)
			os.Exit(2)
		}
		tr.Journal = j
		defer func() {
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "remytrain: telemetry journal:", err)
			}
		}()
	}
	tree := tr.Train(remy.Budget{Generations: *gens, OptPasses: *passes, MovesPerWhisker: *moves})

	data, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	// Human status goes to stderr with the progress stream; the single
	// structured summary line — every counter the telemetry plane
	// tallied, machine-greppable key=value — is the one stdout line
	// besides nothing (the tree goes to -o).
	fmt.Fprintf(os.Stderr, "trained %d whiskers -> %s\n", tree.Len(), *out)
	cs := tr.LocalCacheStats()
	shardHits, shardTotal := tr.ShardCacheStats()
	drawHits, drawMisses := remy.DrawMemoStats()
	fmt.Printf("summary: whiskers=%d slots=%d skipped_slots=%d eval_cache_hits=%d eval_cache_disk_hits=%d eval_cache_misses=%d eval_cache_entries=%d shard_results=%d shard_cache_hits=%d draw_memo_hits=%d draw_memo_misses=%d\n",
		tree.Len(), tr.SlotsEvaluated(), tr.SlotsSkipped(), cs.Hits, cs.DiskHits, cs.Misses, cs.Entries,
		shardTotal, shardHits, drawHits, drawMisses)
}

// signalNames lists the memory signals by name, in index order.
func signalNames() string {
	names := make([]string, remycc.NumSignals)
	for s := range names {
		names[s] = remycc.Signal(s).String()
	}
	return strings.Join(names, ", ")
}

// knockoutMask is the signal mask -knockout asks for: every signal but
// the one named, or every signal for "".
func knockoutMask(name string) (remycc.SignalMask, error) {
	mask := remycc.AllSignals()
	if name == "" {
		return mask, nil
	}
	for s := range remycc.Signal(remycc.NumSignals) {
		if s.String() == name {
			return mask.Without(s), nil
		}
	}
	return mask, fmt.Errorf("unknown signal %q (want one of %s)", name, signalNames())
}

// durations converts -duration, and -rtt-max when it is set (minRTT,
// the template's -rtt, otherwise).
func durations(minRTT units.Duration) (run, rttHi units.Duration, err error) {
	if run, err = scenflags.Duration("-duration", *dur); err != nil {
		return 0, 0, err
	}
	rttHi = minRTT
	if *rttMax != 0 {
		rttHi, err = scenflags.Duration("-rtt-max", *rttMax/1e3)
	}
	return run, rttHi, err
}
