package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's judgement of one workload x metric pairing.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"  // B's median is worse than A's by more than the bound
	unresolved verdict = "unresolved" // within the bound, but a set's own spread exceeds it
)

// worseBy is how much worse b is than a, as a share of a, in the
// metric's direction; negative means better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// judge compares a metric's values from the parent's runs (a) and the
// change's (b). A median worse by more than the bound is a regression.
// Otherwise, when either set's spread is wider than the bound the sets
// cannot resolve a difference that small — unless every run of the
// change reads better than every run of the parent.
func judge(d metricDef, a, b []float64) verdict {
	if worseBy(d, median(a), median(b)) > d.Bound {
		return regressed
	}
	if spread(a) <= d.Bound && spread(b) <= d.Bound {
		return ok
	}
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) >= 0 {
				return unresolved
			}
		}
	}
	return ok
}

// values gathers one end-to-end metric of one workload from a set's
// untraced runs.
func (f *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r.Metrics[metric].Value)
		}
	}
	return out
}

// digests maps seed to digest for one workload's runs.
func (f *resultsFile) digests(workload string) map[uint64]string {
	out := map[uint64]string{}
	for _, r := range f.Runs {
		if r.Workload == workload {
			out[r.Seed] = r.Digest
		}
	}
	return out
}

func (f *resultsFile) failed(workload string) (n int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}

// digestsAgree compares two sets' digests seed by seed.
func digestsAgree(a, b map[uint64]string) string {
	common := 0
	for seed, d := range a {
		if e, ok := b[seed]; ok {
			common++
			if d != e {
				return "differ"
			}
		}
	}
	if common == 0 {
		return "no-common-seed"
	}
	return "equal"
}

// compare prints one row per workload x end-to-end metric and reports
// whether anything regressed. More failed ops than the parent is a
// regression whatever the timings say.
func compare(a, b *resultsFile, w io.Writer) (bad bool) {
	fmt.Fprintf(w, "%-15s %-14s %14s %14s %8s %6s  %-10s %-8s %s\n",
		"workload", "metric", "A q1/med/q3", "B q1/med/q3", "delta", "bound", "verdict", "digests", "failed A/B")
	for _, wl := range workloads {
		dig := digestsAgree(a.digests(wl.name), b.digests(wl.name))
		fa, fb := a.failed(wl.name), b.failed(wl.name)
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-14s missing from a set\n", wl.name, d.Name)
				bad = true
				continue
			}
			v := judge(d, va, vb)
			if fb > fa {
				v = regressed
			}
			if v == regressed {
				bad = true
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-15s %-14s %14s %14s %+7.1f%% %5.0f%%  %-10s %-8s %d/%d\n",
				wl.name, d.Name, fmt.Sprintf("%.4g/%.4g/%.4g", a1, a2, a3), fmt.Sprintf("%.4g/%.4g/%.4g", b1, b2, b3),
				ratio(b2-a2, a2)*100, d.Bound*100, v, dig, fa, fb)
		}
	}
	return bad
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if compare(a, b, os.Stdout) {
		return fmt.Errorf("%s regressed against %s", pathB, pathA)
	}
	return nil
}
