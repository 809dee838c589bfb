// Command benchmark is the repository's yardstick: five fixed-work
// workloads, measured end to end with tracing off and layer by layer
// from one traced pass plus probes, all from outside the layers
// through their public functions and exported counters. README.md
// holds the method, the metric tables and the measured noise.
//
//	go run ./benchmark -seed 0                 # every workload, each in a fresh child
//	go run ./benchmark -workload eval-fabric   # one workload, end to end
//	go run ./benchmark -workload eval-fabric -trace 1
//	go run ./benchmark -compare A/results.json B/results.json
//	go run ./benchmark -manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart approximates when the process began: set-up time runs
// from here to the first timed op.
var processStart = time.Now()

// cli holds the parsed flags.
type cli struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	runs      int
	outDir    string
	compare   bool
	manifest  bool
	setupOnly bool
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "run this one workload in this process; empty runs all, each in a fresh child")
	flag.Uint64Var(&c.seed, "seed", 0, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", defaultSeconds, "timed budget of one run, in seconds")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass and the probes")
	flag.IntVar(&c.runs, "runs", 1, "with no -workload: runs per workload, at seeds seed, seed+1, ...")
	flag.StringVar(&c.outDir, "out", filepath.Join("benchmark", "out"), "directory for records, span files and results.json")
	flag.BoolVar(&c.compare, "compare", false, "compare two results.json files given as arguments; exit 1 on a regression")
	flag.BoolVar(&c.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&c.setupOnly, "setup-only", false, "with -workload: set up, print the set-up seconds, exit (used by a run to sample set-up in fresh processes)")
	flag.Parse()
	if err := run(c, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(c cli, args []string) error {
	switch {
	case c.manifest:
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case c.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(args[0], args[1])
	case c.trace != 0 && c.trace != 1:
		return fmt.Errorf("-trace is 0 or 1, not %d", c.trace)
	case c.workload == "":
		return runAll(c.seed, c.seconds, c.runs, c.outDir)
	}

	w, err := findWorkload(c.workload)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	if c.setupOnly {
		return setupAlone(w, c.seed)
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	rec, err := runWorkload(w, options{
		seed: c.seed, seconds: c.seconds, trace: c.trace == 1, sc: fullScale, outDir: c.outDir, floor: minPasses, start: processStart,
		moreSetups: func() ([]float64, error) { return sampleSetups(w.name, c.seed, setupSamples-1) },
	})
	if err != nil {
		return err
	}
	rec.print()
	if err := writeJSON(recordPath(c.outDir, w.name, rec.Trace), rec); err != nil {
		return err
	}
	line, err := rec.result()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// setupAlone performs a workload's set-up in this process and prints
// how long it took since process start.
func setupAlone(w *workload, seed uint64) error {
	tree, err := loadTao()
	if err != nil {
		return err
	}
	sess, err := w.open(seed, fullScale, tree)
	if err != nil {
		return err
	}
	defer sess.close()
	if err := sess.pass().firstErr(); err != nil {
		return err
	}
	fmt.Println(time.Since(processStart).Seconds())
	return nil
}

// sampleSetups measures set-up in n fresh copies of this process, one
// at a time.
func sampleSetups(name string, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		b, err := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-setup-only").Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		if out[i], err = strconv.ParseFloat(strings.TrimSpace(string(b)), 64); err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
	}
	return out, nil
}

func recordPath(outDir, name string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", name, trace))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultsFile is one set of runs: what -compare reads.
type resultsFile struct {
	Runs []record `json:"runs"`
}

// runAll runs every workload, untraced then traced, each in a fresh
// child process, one at a time, and gathers their records into
// results.json.
func runAll(seed uint64, seconds float64, runs int, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultsFile
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(exe,
					"-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(r), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
				}
				var rec record
				b, err := os.ReadFile(recordPath(outDir, w.name, trace))
				if err != nil {
					return err
				}
				if err := json.Unmarshal(b, &rec); err != nil {
					return fmt.Errorf("%s record: %w", w.name, err)
				}
				set.Runs = append(set.Runs, rec)
			}
		}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, &set); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs)\n", path, len(set.Runs))
	for _, rec := range set.Runs {
		if !rec.Correct {
			return fmt.Errorf("%s seed %d: %d of %d ops failed", rec.Workload, rec.Seed, rec.Failed, rec.Attempted)
		}
	}
	return nil
}
