package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
)

// quantiles reported for each histogram in both expositions.
var quantiles = []float64{0.5, 0.9, 0.99}

// baseName splits a Prometheus-style metric name into its bare name
// and the label block (including braces), e.g.
// "x_total{lane=\"0\"}" -> ("x_total", "{lane=\"0\"}").
func baseName(name string) (string, string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// withLabel merges an extra label into a metric name's label block:
// withLabel(`x{lane="0"}`, `quantile="0.5"`) -> `x{lane="0",quantile="0.5"}`.
func withLabel(name, label string) string {
	base, labels := baseName(name)
	if labels == "" {
		return base + "{" + label + "}"
	}
	return base + "{" + strings.TrimSuffix(labels[1:], "}") + "," + label + "}"
}

// Handler returns an http.Handler exposing the registry's metrics.
// The default exposition is Prometheus text; `?format=json` (or an
// Accept header preferring application/json) switches to a flat
// expvar-style JSON object, where histograms render as nested objects
// with count/sum/quantiles.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			w.Write(jsonExposition(r))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write([]byte(TextExposition(r)))
	})
}

// TextExposition renders the registry in the Prometheus text format:
// counters and gauges as single samples, histograms as summaries
// (quantile samples plus _sum and _count).
func TextExposition(r *Registry) string {
	var b strings.Builder
	typed := map[string]bool{}
	r.Visit(func(name string, metric any) {
		base, _ := baseName(name)
		emitType := func(kind string) {
			// One TYPE line per base name, before its first sample.
			if !typed[base] {
				typed[base] = true
				fmt.Fprintf(&b, "# TYPE %s %s\n", base, kind)
			}
		}
		switch m := metric.(type) {
		case *Counter:
			emitType("counter")
			fmt.Fprintf(&b, "%s %d\n", name, m.Value())
		case *Gauge:
			emitType("gauge")
			fmt.Fprintf(&b, "%s %g\n", name, m.Value())
		case *Histogram:
			emitType("summary")
			for _, q := range quantiles {
				fmt.Fprintf(&b, "%s %g\n",
					withLabel(name, fmt.Sprintf("quantile=%q", fmt.Sprint(q))), m.Quantile(q))
			}
			base, labels := baseName(name)
			fmt.Fprintf(&b, "%s_sum%s %d\n", base, labels, m.Sum())
			fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, m.Count())
		}
	})
	return b.String()
}

// jsonExposition renders the registry as one flat JSON object keyed by
// metric name, histograms as {count, sum, p50, p90, p99}.
func jsonExposition(r *Registry) []byte {
	out := map[string]any{}
	r.Visit(func(name string, metric any) {
		switch m := metric.(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case *Histogram:
			out[name] = map[string]any{
				"count": m.Count(),
				"sum":   m.Sum(),
				"p50":   m.Quantile(0.5),
				"p90":   m.Quantile(0.9),
				"p99":   m.Quantile(0.99),
			}
		}
	})
	// json.Marshal sorts map keys, so the exposition is deterministic.
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		// Only reachable if a Func metric returns NaN/Inf; degrade to
		// an empty object rather than a broken endpoint.
		return []byte("{}")
	}
	return append(b, '\n')
}

// Serve binds addr and serves the registry on /metrics (and /) in a
// background goroutine. It returns the bound address (useful with
// ":0") and a close function; the bind itself is synchronous so bad
// addresses fail loudly at startup.
func Serve(addr string, r *Registry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/", Handler(r))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}
