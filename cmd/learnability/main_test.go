package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"learnability/internal/core"
)

// TestRunRejectsBadInvocations: every bad invocation exits 2 with a
// diagnostic naming the problem, before any experiment runs.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of stderr
	}{
		{"bad effort", []string{"-effort", "heroic"}, []string{`unknown effort "heroic"`}},
		{"unknown id", []string{"-exp", "fig5"}, []string{`unknown experiment "fig5"`, "fig1, fig2", "unified, all"}},
		// fig5 used to be skipped silently because vegas matched.
		{"unknown id beside a known one", []string{"-exp", "vegas,fig5"}, []string{`unknown experiment "fig5"`}},
		{"empty match", []string{"-exp", " , "}, []string{`no experiment matched " , "`}},
		{"unknown flag", []string{"-no-such-flag"}, []string{"flag provided but not defined"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if status := run(tc.args, &stdout, &stderr); status != 2 {
				t.Fatalf("exit status %d, want 2 (stderr: %s)", status, &stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr %q does not mention %q", &stderr, want)
				}
			}
			if stdout.Len() != 0 {
				t.Errorf("wrote %d bytes to stdout", stdout.Len())
			}
		})
	}
}

// TestUsageListsEveryExperiment: the usage text and the -exp help come
// from core.Experiments, so neither can omit one.
func TestUsageListsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-h"}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit status %d, want 0", status)
	}
	for _, ex := range core.Experiments {
		if !strings.Contains(stderr.String(), "-exp "+ex.ID+" ") || !strings.Contains(stderr.String(), ex.Title) {
			t.Errorf("usage does not list %s (%s):\n%s", ex.ID, ex.Title, &stderr)
		}
		if !strings.Contains(stderr.String(), ex.ID+",") {
			t.Errorf("-exp help does not list %s", ex.ID)
		}
	}
}

// TestVegasTwice runs one real experiment (vegas trains nothing) end to
// end, twice: table, chart flag and CSV file plumbing, and the
// byte-determinism every experiment promises for a seed.
func TestVegasTwice(t *testing.T) {
	invoke := func() (table, csv string) {
		dir := filepath.Join(t.TempDir(), "out")
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "vegas", "-effort", "quick", "-seed", "3", "-plot", "-csv", dir}
		if status := run(args, &stdout, &stderr); status != 0 {
			t.Fatalf("exit status %d (stderr: %s)", status, &stderr)
		}
		if stderr.Len() != 0 {
			t.Errorf("stderr: %s", &stderr)
		}
		data, err := os.ReadFile(filepath.Join(dir, "vegas.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(stdout.String(), dir, "DIR"), string(data)
	}
	table, csv := invoke()
	for _, want := range []string{"== vegas: Vegas squeeze-out premise (§4.5) ==", "vs-NewReno",
		"\nheadline  vegas-share-vs-newreno ", "(dataset written to DIR"} {
		if !strings.Contains(table, want) {
			t.Errorf("stdout does not contain %q:\n%s", want, table)
		}
	}
	if !strings.HasPrefix(csv, "setting,protocol,tpt_mbps,queue_delay_ms\nhomogeneous,Vegas,") {
		t.Errorf("csv = %q", csv)
	}
	if table2, csv2 := invoke(); table2 != table || csv2 != csv {
		t.Errorf("two invocations differ:\n%s%s\nvs\n%s%s", table, csv, table2, csv2)
	}
}

// TestHeadlinesUnderEachTable runs the whole suite at quick effort and
// reads stdout the way a person does: every experiment is announced in
// core.Experiments order, its headline lines come after its table and
// before the next experiment, every experiment of the paper has at
// least one (the unified extension has none), and no ID appears twice.
func TestHeadlinesUnderEachTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-exp", "all", "-effort", "quick"}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit status %d (stderr: %s)", status, &stderr)
	}
	var order []string
	ids := map[string][]string{} // experiment -> its headline IDs
	seen := map[string]string{}  // headline ID -> experiment
	tableLines := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch fields := strings.Fields(line); {
		case strings.HasPrefix(line, "== "):
			order = append(order, strings.TrimSuffix(fields[1], ":"))
			tableLines = 0
		case strings.HasPrefix(line, "headline "):
			ex := order[len(order)-1]
			if len(fields) != 3 {
				t.Errorf("%s: malformed headline line %q", ex, line)
				continue
			}
			if tableLines == 0 {
				t.Errorf("%s: headline %s printed above the table", ex, fields[1])
			}
			if first, dup := seen[fields[1]]; dup {
				t.Errorf("headline %s printed under both %s and %s", fields[1], first, ex)
			}
			seen[fields[1]] = ex
			ids[ex] = append(ids[ex], fields[1])
		case line != "":
			tableLines++
		}
	}
	var want []string
	for _, ex := range core.Experiments {
		want = append(want, ex.ID)
		if n := len(ids[ex.ID]); (n == 0) != (ex.ID == "unified") {
			t.Errorf("%s printed %d headlines", ex.ID, n)
		}
	}
	if !slices.Equal(order, want) {
		t.Errorf("experiments printed in order %v, want %v", order, want)
	}
	if len(seen) != 18 {
		t.Errorf("%d headlines printed, want the paper's 18: %v", len(seen), ids)
	}
}
