// Command remytrain runs the Remy protocol-design search over a
// training-scenario distribution and writes the resulting Tao
// protocol's whisker tree as JSON.
//
// Example (the paper's Tao-10x from Table 2a):
//
//	remytrain -speed-min 10 -speed-max 100 -rtt 150 -senders 2 \
//	          -buffer-bdp 5 -generations 4 -o tao10x.json
//
// Training distributes across processes (-shards N -shard-cmd
// "remyshardd -stdio") and machines (-remotes host:port,... pointing
// at remyshardd daemons); output is byte-identical to the in-process
// search either way (docs/EXPERIMENTS.md, "Multi-machine training").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"learnability/internal/cc/remycc"
	"learnability/internal/prof"
	"learnability/internal/remy"
	"learnability/internal/remy/shardnet"
	"learnability/internal/scenario"
	"learnability/internal/telemetry"
	topolib "learnability/internal/topo"
	"learnability/internal/units"
)

func main() {
	var (
		topology   = flag.String("topology", "dumbbell", "training topology: dumbbell, parkinglot (use -hops for more than 2 bottlenecks), or fattree (use -k, -routing, -placement)")
		hops       = flag.Int("hops", 2, "parking-lot bottleneck links in series")
		cross      = flag.Bool("cross", true, "parking-lot cross traffic: one single-hop flow per link")
		arity      = flag.Int("k", 4, "fat-tree arity (even; k^3/4 hosts)")
		routing    = flag.String("routing", "ecmp", "fat-tree multipath routing: ecmp, spray, or adaptive")
		placement  = flag.String("placement", "permutation", "fat-tree flow placement: permutation, alltoall, or incast")
		incastN    = flag.Int("incast", 3, "converging flows for -placement incast")
		speedMin   = flag.Float64("speed-min", 10, "minimum link speed (Mbps), drawn log-uniformly; multi-link topologies draw each link from this range")
		speedMax   = flag.Float64("speed-max", 100, "maximum link speed (Mbps)")
		rttMin     = flag.Float64("rtt", 150, "minimum RTT (ms); lower end if -rtt-max set")
		rttMax     = flag.Float64("rtt-max", 0, "upper end of the minimum-RTT range (ms); 0 = same as -rtt")
		sendersMin = flag.Int("senders-min", 2, "minimum number of senders")
		sendersMax = flag.Int("senders", 2, "maximum number of senders")
		meanOn     = flag.Float64("on", 1, "mean on time (s)")
		meanOff    = flag.Float64("off", 1, "mean off time (s)")
		bufBDP     = flag.Float64("buffer-bdp", 5, "gateway buffer in bandwidth-delay products; 0 = no-drop")
		queueKind  = flag.String("queue", "droptail", "gateway queue: droptail, codel, or sfqcodel")
		ecn        = flag.Bool("ecn", false, "enable ECN: senders mark packets ECT, gateways CE-mark instead of dropping, ACKs echo the mark")
		ecnThresh  = flag.Int("ecn-threshold", 0, "droptail ECN marking threshold in bytes (0 = half the buffer); codel/sfqcodel mark on sojourn time instead")
		vrKind     = flag.String("varrate", "off", "link-rate modulation: off, onoff, or markov")
		vrLow      = flag.Float64("varrate-low", 0.5, "onoff degraded rate as a fraction of the link rate")
		vrMeanHigh = flag.Float64("varrate-mean-high", 1, "onoff mean dwell at full rate (s)")
		vrMeanLow  = flag.Float64("varrate-mean-low", 1, "onoff mean dwell at degraded rate (s)")
		vrFactors  = flag.String("varrate-factors", "1,0.5,0.25", "markov rate factors, comma-separated multiples of the link rate (first is initial)")
		vrDwell    = flag.Float64("varrate-dwell", 0.5, "markov mean dwell per state (s)")
		delta      = flag.Float64("delta", 1, "objective delay weight")
		aimdProb   = flag.Float64("aimd-prob", 0, "probability one sender is AIMD TCP (TCP-aware training)")
		knockout   = flag.String("knockout", "", "signal to remove: rec_ewma, slow_rec_ewma, send_ewma, rtt_ratio, ecn_frac")
		gens       = flag.Int("generations", 3, "whisker-split rounds")
		passes     = flag.Int("passes", 2, "action-optimization passes per generation")
		moves      = flag.Int("moves", 6, "hill-climb moves per whisker")
		replicas   = flag.Int("replicas", 4, "scenario draws per evaluation")
		dur        = flag.Float64("duration", 12, "simulated seconds per training run")
		seed       = flag.Uint64("seed", 1, "training seed")
		workers    = flag.Int("workers", 0, "parallel simulations (0 = NumCPU)")
		shards     = flag.Int("shards", 1, "shard each generation across N workers (1 = in-process); output is bit-identical for any N")
		shardCmd   = flag.String("shard-cmd", "", "worker command for -shards (e.g. 'remyshardd -stdio'); empty runs shard jobs in-process")
		shardWkrs  = flag.Int("shard-workers", 0, "parallel simulations per shard (0 = NumCPU/shards)")
		shardTmo   = flag.Duration("shard-timeout", 0, "kill and requeue a shard job after this long (e.g. 10m); 0 waits forever — set it to survive hung (not just crashed) workers. On -remotes lanes this bounds silence between frames (heartbeats reset it), not job length")
		remotes    = flag.String("remotes", "", "comma-separated remyshardd worker addresses (host:port,...); each is one TCP shard lane. Remote-only unless -shards 2+ adds local lanes. Output stays byte-identical to in-process training")
		shardJSON  = flag.Bool("shard-json", false, "ship shard jobs in the JSON reference codec instead of the binary one; output is byte-identical either way")
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
	flag.Parse()

	stopProf, err := prof.Start(*ppAddr, *cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "remytrain:", err)
		os.Exit(2)
	}
	defer stopProf()

	mask := remycc.AllSignals()
	switch *knockout {
	case "":
	case "rec_ewma":
		mask = mask.Without(remycc.RecEWMA)
	case "slow_rec_ewma":
		mask = mask.Without(remycc.SlowRecEWMA)
	case "send_ewma":
		mask = mask.Without(remycc.SendEWMA)
	case "rtt_ratio":
		mask = mask.Without(remycc.RTTRatio)
	case "ecn_frac":
		mask = mask.Without(remycc.ECNFraction)
	default:
		fmt.Fprintf(os.Stderr, "unknown signal %q\n", *knockout)
		os.Exit(2)
	}

	sendersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "senders" || f.Name == "senders-min" {
			sendersSet = true
		}
	})

	var topo scenario.Topology
	switch *topology {
	case "dumbbell":
		topo = scenario.Dumbbell
	case "parkinglot", "parking-lot":
		// The parking lot fixes its flow count (one long flow plus the
		// cross traffic); the -senders flags apply to the dumbbell only,
		// so an explicit value here would be silently ignored — reject it.
		if sendersSet {
			fmt.Fprintln(os.Stderr, "remytrain: -senders/-senders-min do not apply to -topology parkinglot (the flow count is 1 long flow + one cross flow per hop)")
			os.Exit(2)
		}
		topo = scenario.ParkingLotN(*hops, *cross)
		*sendersMin, *sendersMax = 0, 0
	case "fattree", "fat-tree":
		// The placement fixes the flow count, like the parking lot.
		if sendersSet {
			fmt.Fprintln(os.Stderr, "remytrain: -senders/-senders-min do not apply to -topology fattree (the placement fixes the flow count)")
			os.Exit(2)
		}
		pol, err := topolib.ParseRoutingPolicy(*routing)
		if err != nil {
			fmt.Fprintln(os.Stderr, "remytrain:", err)
			os.Exit(2)
		}
		place, err := scenario.ParsePlacement(*placement)
		if err != nil {
			fmt.Fprintln(os.Stderr, "remytrain:", err)
			os.Exit(2)
		}
		topo = scenario.FatTreeTopology(*arity, pol)
		topo.Placement = place
		if place == scenario.PlacementIncast {
			topo.IncastN = *incastN
		}
		*sendersMin, *sendersMax = 0, 0
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q (want dumbbell or parkinglot)\n", *topology)
		os.Exit(2)
	}

	buffering, err := scenario.ParseBuffering(*queueKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "remytrain:", err)
		os.Exit(2)
	}
	if *bufBDP == 0 {
		buffering = scenario.NoDrop
	}
	varRate, err := parseVarRate(*vrKind, *vrLow, *vrMeanHigh, *vrMeanLow, *vrFactors, *vrDwell)
	if err != nil {
		fmt.Fprintln(os.Stderr, "remytrain:", err)
		os.Exit(2)
	}
	rttHi := *rttMax
	if rttHi == 0 {
		rttHi = *rttMin
	}
	cfg := remy.Config{
		Topology:          topo,
		LinkSpeedMin:      units.Rate(*speedMin) * units.Mbps,
		LinkSpeedMax:      units.Rate(*speedMax) * units.Mbps,
		MinRTTMin:         units.DurationFromSeconds(*rttMin / 1e3),
		MinRTTMax:         units.DurationFromSeconds(rttHi / 1e3),
		SendersMin:        *sendersMin,
		SendersMax:        *sendersMax,
		AIMDProb:          *aimdProb,
		MeanOn:            units.DurationFromSeconds(*meanOn),
		MeanOff:           units.DurationFromSeconds(*meanOff),
		Buffering:         buffering,
		BufferBDP:         *bufBDP,
		ECN:               *ecn,
		ECNThresholdBytes: *ecnThresh,
		VarRate:           varRate,
		Delta:             *delta,
		Mask:              mask,
		Duration:          units.DurationFromSeconds(*dur),
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
		Shards:           *shards,
		ShardCmd:         strings.Fields(*shardCmd),
		ShardWorkers:     *shardWkrs,
		ShardTimeout:     *shardTmo,
		Remotes:          remoteAddrs,
		ShardJSON:        *shardJSON,
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
	fmt.Printf("summary: whiskers=%d slots=%d eval_cache_hits=%d eval_cache_disk_hits=%d eval_cache_misses=%d eval_cache_entries=%d shard_results=%d shard_cache_hits=%d draw_memo_hits=%d draw_memo_misses=%d\n",
		tree.Len(), tr.SlotsEvaluated(), cs.Hits, cs.DiskHits, cs.Misses, cs.Entries,
		shardTotal, shardHits, drawHits, drawMisses)
}

// parseVarRate assembles a scenario.VarRate from the -varrate* flags;
// parameters of the unselected family are ignored.
func parseVarRate(kind string, low, meanHigh, meanLow float64, factors string, dwell float64) (scenario.VarRate, error) {
	k, err := scenario.ParseVarRateKind(kind)
	if err != nil {
		return scenario.VarRate{}, err
	}
	vr := scenario.VarRate{Kind: k}
	switch k {
	case scenario.VarRateOnOff:
		vr.LowFactor = low
		vr.MeanHigh = units.DurationFromSeconds(meanHigh)
		vr.MeanLow = units.DurationFromSeconds(meanLow)
	case scenario.VarRateMarkov:
		for _, f := range strings.Split(factors, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			x, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return scenario.VarRate{}, fmt.Errorf("bad -varrate-factors entry %q", f)
			}
			vr.Factors = append(vr.Factors, x)
		}
		vr.MeanDwell = units.DurationFromSeconds(dwell)
	}
	return vr, nil
}
