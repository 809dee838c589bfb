// Package telemetry is the repo's observability plane: a small
// registry of atomic counters, gauges, and log-scale histograms, an
// HTTP exposition handler (Prometheus text and expvar-style JSON), and
// an append-only JSONL event journal.
//
// Two invariants shape the design. First, the disabled path is a nil
// check: every metric method no-ops on a nil receiver, and a nil
// *Registry hands out nil metrics, so instrumented code calls
// unconditionally and pays one predictable branch when telemetry is
// off (the zero-alloc trace-hook benchmark pins this). Second,
// observation is invisible: metrics and journals only ever read or
// count — they never touch a random stream, a float in the score path,
// or packet bytes — so enabling telemetry cannot change simulation or
// training results (the byte-equality differential tests extend
// ARCHITECTURE.md invariant 6 over this plane).
//
// Metric names follow subsystem_quantity_unit, with labels baked into
// the name Prometheus-style: shard_lane_jobs_total{lane="0:w1:7117"}.
// Every name registers exactly one metric; get-or-create accessors
// return the existing metric for a known name.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. All methods are safe on
// a nil receiver (they no-op or return zero), so disabled telemetry
// costs one branch per call site.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are a caller bug but are not checked —
// counters are hot-path primitives).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (window occupancy, current
// score). All methods are nil-receiver safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adjusts the gauge by delta (CAS loop), so concurrent
// up/down movements — connection counts — never lose updates.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge (zero on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is one bucket per power of two of an int64, plus bucket
// zero for the value 0.
const histBuckets = 65

// Histogram accumulates non-negative integer observations (latencies
// in nanoseconds, sizes in bytes) into log-scale buckets: bucket i
// holds values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i). The
// trade is deliberate — constant memory, lock-free atomic observes,
// and quantile estimates good to a factor of sqrt(2), which is plenty
// for "is this lane slow". All methods are nil-receiver safe.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value; negatives clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running total of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) as the geometric
// midpoint of the bucket holding that rank; zero when empty or nil.
// Concurrent Observes make the estimate approximate, never wrong by
// more than one bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			// Geometric midpoint of [2^(i-1), 2^i).
			return math.Exp2(float64(i) - 0.5)
		}
	}
	return math.Exp2(histBuckets - 1)
}

// funcMetric is a value polled at exposition time (cache sizes, server
// counters owned elsewhere).
type funcMetric struct {
	fn func() float64
}

// Registry holds named metrics. The zero value is ready to use; a nil
// *Registry is the disabled plane — every accessor returns nil, whose
// methods no-op.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// lookup returns the metric registered under name, creating it with mk
// on first use. It panics if name is registered as a different kind —
// a metric name means one thing.
func (r *Registry) lookup(name string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.metrics == nil {
		r.metrics = make(map[string]any)
	}
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it on
// first use; nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q registered as %T, not a counter", name, m))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q registered as %T, not a gauge", name, m))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use; nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return &Histogram{} })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q registered as %T, not a histogram", name, m))
	}
	return h
}

// Func registers (or replaces) a polled metric: fn is read at
// exposition time, so values owned by other subsystems — cache entry
// counts, server job totals — surface without double bookkeeping.
// No-op on a nil registry.
func (r *Registry) Func(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.metrics == nil {
		r.metrics = make(map[string]any)
	}
	r.metrics[name] = &funcMetric{fn: fn}
}

// Visit calls fn for every registered metric in name order. The metric
// is one of *Counter, *Gauge, or *Histogram (polled Func metrics are
// surfaced as their current value in a *Gauge snapshot). Visitors use
// it to fold related series — per-lane latency quantiles into a
// journal record, labeled counters into a sum.
func (r *Registry) Visit(fn func(name string, metric any)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make([]any, len(names))
	sort.Strings(names)
	for i, name := range names {
		ms[i] = r.metrics[name]
	}
	r.mu.Unlock()
	for i, name := range names {
		m := ms[i]
		if f, ok := m.(*funcMetric); ok {
			g := &Gauge{}
			g.Set(f.fn())
			m = g
		}
		fn(name, m)
	}
}
