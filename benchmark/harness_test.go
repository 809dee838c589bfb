package main

import (
	"bytes"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from Python 3.11.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if m := median([]float64{5, 1, 9, 3}); m != 4 {
		t.Errorf("median = %v, want 4", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (5.5 between the quartiles over a median of 5.5)", s)
	}
}

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(v, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Name: "parent", StartNS: 0, EndNS: 100, Parent: -1},
		{ID: 1, Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{ID: 2, Name: "b", StartNS: 30, EndNS: 60, Parent: 0},  // overlaps a by 10
		{ID: 3, Name: "c", StartNS: 90, EndNS: 120, Parent: 0}, // runs past the parent
		{ID: 4, Name: "d", StartNS: 35, EndNS: 38, Parent: 0},  // inside the overlap
		{ID: 5, Name: "grandchild", StartNS: 12, EndNS: 20, Parent: 1},
	}}
	// Children cover [10,60) and [90,100): 60 of the parent's 100.
	if got := tr.selfNS(0); got != 40 {
		t.Errorf("parent self time = %d, want 40", got)
	}
	if got := tr.selfNS(1); got != 22 {
		t.Errorf("a's self time = %d, want 22 (30 less its 8 ns grandchild)", got)
	}
	if got := tr.selfNS(2); got != 30 {
		t.Errorf("a childless span's self time = %d, want its duration 30", got)
	}
	if ns := tr.total("a"); ns != 30 {
		t.Errorf("total(a) = %d, want 30", ns)
	}

	var nilTracer *tracer
	id := nilTracer.begin("x", -1, 0)
	nilTracer.end(id) // must not panic
}

func TestCountingListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counts := &wireCounts{}
	cl := countingListener{Listener: ln, counts: counts}
	defer cl.Close()

	done := make(chan error, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 1000)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write([]byte("0123456789"))
		done <- err
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{300, 700} {
		if _, err := c.Write(bytes.Repeat([]byte{'x'}, n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := io.ReadFull(c, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if in, out := counts.bytesIn.Load(), counts.bytesOut.Load(); in != 1000 || out != 10 {
		t.Errorf("counted %d bytes in, %d out; want 1000 and 10", in, out)
	}
	if r := counts.reads.Load(); r < 1 || r > 1000 {
		t.Errorf("counted %d reads for 1000 bytes", r)
	}
}

// set builds a results file with one workload's untraced runs.
func set(workload, digest string, failed int, metric string, values ...float64) *resultsFile {
	f := &resultsFile{}
	for i, v := range values {
		f.Runs = append(f.Runs, record{
			Workload: workload, Seed: uint64(i), Digest: digest, Failed: failed,
			Metrics: map[string]metricValue{metric: {Value: v}},
		})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", higher, []float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, ok},
		{"slower within the bound", higher, []float64{100, 101, 99, 100}, []float64{95, 96, 94, 95}, ok},
		{"slower beyond the bound", higher, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, regressed},
		{"faster", higher, []float64{100, 101, 99, 100}, []float64{150, 151, 149, 150}, ok},
		{"lower-is-better grew beyond the bound", lower, []float64{1, 1.01, 0.99, 1}, []float64{1.3, 1.31, 1.29, 1.3}, regressed},
		{"lower-is-better shrank", lower, []float64{1, 1.01, 0.99, 1}, []float64{0.5, 0.51, 0.49, 0.5}, ok},
		{"too noisy to tell", higher, []float64{80, 120, 100, 60, 140}, []float64{82, 118, 99, 61, 139}, unresolved},
		{"noisy, yet every run better", higher, []float64{80, 120, 100, 60, 140}, []float64{150, 190, 170, 145, 200}, ok},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}

	a := set("eval-fabric", "d1", 0, "work_per_s", 100, 101, 99)
	var out bytes.Buffer
	if bad := compare(a, set("eval-fabric", "d1", 0, "work_per_s", 100, 100, 100), &out); !bad {
		t.Error("compare passed two sets that miss four workloads and three metrics")
	}
	if !strings.Contains(out.String(), "equal") {
		t.Errorf("equal digests at equal seeds not reported:\n%s", out.String())
	}
	out.Reset()
	compare(a, set("eval-fabric", "d2", 1, "work_per_s", 100, 100, 100), &out)
	row := ""
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "eval-fabric") && strings.Contains(line, "work_per_s") {
			row = line
		}
	}
	if !strings.Contains(row, "differ") || !strings.Contains(row, string(regressed)) || !strings.Contains(row, "0/3") {
		t.Errorf("a changed digest and three newly failed ops should read differ, regressed, 0/3; got:\n%s", row)
	}
}

func TestManifestIsCommitted(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
}

// TestSmoke runs all five workloads, untraced and traced, at a
// one-pass cut-down budget and checks that every named metric is
// reported, that nothing failed, and that the three train workloads
// trained the same trees.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	trainDigest := ""
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			t0 := time.Now()
			rec, err := runWorkload(w, options{seed: 7, sc: smokeScale, outDir: dir, floor: 1, trace: trace, start: time.Now()})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			t.Logf("%s (trace %v): %d ops in %v", w.name, trace, rec.Attempted, time.Since(t0).Round(time.Millisecond))
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", w.name, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(dir + "/trace-" + w.name + ".jsonl"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics reported, table has %d", w.name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, found := rec.Metrics[d.Name]
				switch {
				case !found:
					t.Errorf("%s: metric %s missing", w.name, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit:
					t.Errorf("%s: metric %s = %v %q", w.name, d.Name, m.Value, m.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w.name, d.Name, m.Value)
				}
			}
			if _, err := rec.result(); err != nil {
				t.Errorf("%s: result line: %v", w.name, err)
			}
			if w.perSlot {
				if trainDigest == "" {
					trainDigest = rec.Digest
				}
				if rec.Digest != trainDigest {
					t.Errorf("%s trained different trees than train-cold: digest %s, want %s", w.name, rec.Digest, trainDigest)
				}
			}
		}
	}
}
