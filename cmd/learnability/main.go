// Command learnability regenerates the paper's tables and figures.
//
//	learnability -exp fig2,fig4 -plot     # selected experiments, with ASCII charts
//	learnability -exp all -effort quick   # everything, at smoke-test fidelity
//
// learnability -h lists the experiment ids (core.Experiments is the one
// list). Under each table come the experiment's headline quantities,
// one "headline <id> <value>" line each, to four significant figures.
// -effort quick|default trades fidelity for wall-clock time; -v
// streams training progress; -csv DIR additionally writes each
// experiment's full dataset as DIR/<exp>.csv for external plotting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"learnability/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process-wide inputs as parameters: the argument
// list, the stream tables go to and the diagnostic stream. It returns
// the exit status (2 for a bad invocation).
func run(args []string, stdout, stderr io.Writer) int {
	var ids []string
	for _, ex := range core.Experiments {
		ids = append(ids, ex.ID)
	}

	fs := flag.NewFlagSet("learnability", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiments to run (comma-separated): "+strings.Join(ids, ",")+",all")
		effort  = fs.String("effort", "default", "effort preset: quick or default")
		seed    = fs.Uint64("seed", 1, "root seed (determinism)")
		csvDir  = fs.String("csv", "", "directory to write per-experiment CSV datasets")
		plots   = fs.Bool("plot", false, "also render ASCII charts for the sweep figures")
		verbose = fs.Bool("v", false, "stream training progress to stderr")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: learnability [flags]\n\nexperiments:")
		for _, ex := range core.Experiments {
			fmt.Fprintf(stderr, "  -exp %-9s %s\n", ex.ID, ex.Title)
		}
		fmt.Fprintf(stderr, "  -exp %-9s everything\n\nflags:\n", "all")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var e core.Effort
	switch *effort {
	case "quick":
		e = core.QuickEffort()
	case "default":
		e = core.DefaultEffort()
	default:
		fmt.Fprintf(stderr, "unknown effort %q\n", *effort)
		return 2
	}
	e.Seed = *seed

	var log func(string, ...any)
	if *verbose {
		log = func(f string, a ...any) { fmt.Fprintf(stderr, f+"\n", a...) }
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if id != "all" && !slices.Contains(ids, id) {
			fmt.Fprintf(stderr, "unknown experiment %q (valid: %s, all)\n", id, strings.Join(ids, ", "))
			return 2
		}
		want[id] = true
	}
	if len(want) == 0 {
		fmt.Fprintf(stderr, "no experiment matched %q\n", *exp)
		return 2
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "csv dir:", err)
			return 1
		}
	}

	for _, ex := range core.Experiments {
		if !want["all"] && !want[ex.ID] {
			continue
		}
		fmt.Fprintf(stdout, "== %s: %s ==\n", ex.ID, ex.Title)
		res := ex.Run(e, log)
		fmt.Fprint(stdout, res.Table())
		for _, h := range res.Headlines() {
			fmt.Fprintf(stdout, "headline  %-36s %#.4g\n", h.ID, h.Value)
		}
		fmt.Fprintln(stdout)
		if p, ok := res.(interface{ Plot() string }); ok && *plots {
			fmt.Fprintln(stdout, p.Plot())
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, ex.ID+".csv")
			if err := writeCSV(path, res); err != nil {
				fmt.Fprintf(stderr, "csv %s: %v\n", path, err)
				return 1
			}
			fmt.Fprintf(stdout, "(dataset written to %s)\n\n", path)
		}
	}
	return 0
}

// writeCSV writes the result's dataset to a new file at path.
func writeCSV(path string, res core.Result) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteCSV(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
