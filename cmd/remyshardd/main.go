// Command remyshardd is the training worker: it evaluates shard jobs
// for a remytrain coordinator behind a content-addressed result cache,
// so repeated candidate evaluations — common across a training run's
// hill-climb, and across reruns of the same seed — are answered from
// memory:
//
//	remyshardd -listen :7117            # a daemon, one per worker machine
//	remytrain -remotes w1:7117,w2:7117  # ... and its coordinator
//
// It listens on a TCP port and serves any number of coordinator
// connections (many jobs per connection). To spread training over one
// machine's processes, run a daemon on a loopback port and name it
// once per lane: `remyshardd -listen 127.0.0.1:7118` with `remytrain
// -remotes 127.0.0.1:7118,127.0.0.1:7118`.
//
// Jobs are self-contained and evaluation is a pure function of the
// job, so a worker holds no training state: it can be restarted at any
// time (the coordinator reconnects and requeues), serve
// several trainings at once, and return cached results verbatim
// without any effect on the trained bits. With -cache-dir the cache
// also spills every entry to disk (hash-verified on load, corrupt
// files evicted), so even a restarted worker answers repeated work
// from its warm store. -pprof/-cpuprofile/-memprofile expose the
// standard profiling taps. Setting REMY_SHARD_DIE_AFTER=N makes every
// connection drop after N jobs — a chaos knob for exercising the
// coordinator's requeue path against real workers.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"learnability/internal/prof"
	"learnability/internal/remy"
	"learnability/internal/remy/shardnet"
	"learnability/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main with its process-wide inputs as parameters: the argument
// list and the diagnostic stream. It returns the exit status (2 for a
// bad invocation) once serving stops.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("remyshardd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", ":7117", "TCP address to serve shard jobs on")
		workers  = fs.Int("workers", 0, "parallel simulations per job (0 = NumCPU)")
		cacheN   = fs.Int("cache", shardnet.DefaultCacheEntries, "result-cache capacity in entries (0 = default, negative disables)")
		cacheDir = fs.String("cache-dir", "", "spill cache entries to this directory (created if missing) and reload them on restart, hash-verified; entries survive worker lifetimes so warm restarts stay warm")
		hb       = fs.Duration("hb", shardnet.DefaultHeartbeat, "heartbeat interval while a job evaluates")
		metricsF = fs.String("metrics", "", "serve live metrics on this address (e.g. :9090): connections, jobs, job latency, cache counters. GET /metrics for Prometheus text, ?format=json for JSON")
		ppAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (flushed on SIGINT/SIGTERM)")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on SIGINT/SIGTERM")
		verbose  = fs.Bool("v", true, "log connections and cache stats")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(status int, err any) int {
		fmt.Fprintln(stderr, "remyshardd:", err)
		return status
	}

	dieAfter := 0
	if s := os.Getenv("REMY_SHARD_DIE_AFTER"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return fail(2, fmt.Sprintf("bad REMY_SHARD_DIE_AFTER %q", s))
		}
		dieAfter = n
	}
	var cache *shardnet.Cache
	switch {
	case *cacheN < 0 && *cacheDir != "":
		return fail(2, "-cache-dir needs the cache enabled (-cache >= 0)")
	case *cacheN < 0:
	case *cacheDir != "":
		var err error
		if cache, err = shardnet.NewDiskCache(*cacheDir, *cacheN); err != nil {
			return fail(2, err)
		}
	default:
		cache = shardnet.NewCache(*cacheN)
	}
	eval := remy.CachedShardEval(cache)

	stopProf, err := prof.Start(*ppAddr, *cpuProf, *memProf)
	if err != nil {
		return fail(2, err)
	}
	var reg *telemetry.Registry
	if *metricsF != "" {
		reg = telemetry.NewRegistry()
		// The slot cache keeps its own counters; polled Func metrics
		// surface them on the same endpoint without double bookkeeping.
		if cache != nil {
			reg.Func("shardnet_cache_entries", func() float64 { return float64(cache.Stats().Entries) })
			reg.Func("shardnet_cache_hits_total", func() float64 { return float64(cache.Stats().Hits) })
			reg.Func("shardnet_cache_disk_hits_total", func() float64 { return float64(cache.Stats().DiskHits) })
			reg.Func("shardnet_cache_misses_total", func() float64 { return float64(cache.Stats().Misses) })
			reg.Func("shardnet_cache_rejected_total", func() float64 { return float64(cache.Stats().Rejected) })
		}
		addr, closeMetrics, err := telemetry.Serve(*metricsF, reg)
		if err != nil {
			stopProf()
			return fail(2, err)
		}
		defer closeMetrics()
		fmt.Fprintf(stderr, "remyshardd: serving metrics on http://%s/metrics\n", addr)
	}

	srv := &shardnet.Server{
		Eval:      eval,
		Heartbeat: *hb,
		Workers:   *workers,
		DieAfter:  dieAfter,
		Metrics:   reg,
	}
	if srv.Workers <= 0 {
		srv.Workers = runtime.NumCPU()
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		stopProf()
		return fail(1, err)
	}
	prof.StopOnSignal(stopProf)
	if *verbose {
		srv.Log = func(f string, a ...any) { fmt.Fprintf(stderr, f+"\n", a...) }
		go func() {
			for range time.Tick(time.Minute) {
				st := srv.Stats()
				if cache != nil {
					cs := cache.Stats()
					fmt.Fprintf(stderr, "remyshardd: %d jobs served, slot cache %d hits (%d from disk) / %d misses / %d entries\n",
						st.Jobs, cs.Hits, cs.DiskHits, cs.Misses, cs.Entries)
				} else {
					fmt.Fprintf(stderr, "remyshardd: %d jobs served (cache disabled)\n", st.Jobs)
				}
			}
		}()
	}
	cacheDesc := "off"
	if cache != nil {
		cacheDesc = "memory"
		if d := cache.Dir(); d != "" {
			cacheDesc = "disk:" + d
		}
	}
	fmt.Fprintf(stderr, "remyshardd: serving shard jobs on %s (%d workers/job, cache %s)\n",
		ln.Addr(), srv.Workers, cacheDesc)
	if err := srv.Serve(ln); err != nil {
		return fail(1, err)
	}
	return 0
}
