package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one reported number. The two tables below are the
// single source of the benchmark's vocabulary: BENCHMARK.json is
// generated from them (-manifest), -compare reads its bounds from
// them, and a run refuses to report a name they do not list.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by. Per-layer metrics have none, and the manifest omits it.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them from untraced passes only, and none is
// ever zero. work_per_s counts simulated data packets delivered per
// host second on eval-* and (tree x replica) slots scored per host
// second on train-*: numerators that are constants of the workload,
// so a simulator-only speed-up moves the metric through its
// denominator alone. Failures are not a metric (zero cannot carry a
// relative bound): they travel as failed/attempted in every result.
// Every bound is the widest the contract allows: the builder's shared
// 2-vCPU box drifts by a tenth between sets of runs minutes apart, and
// a set's spread reached 10 % (README.md has the table), so nothing
// tighter would hold with a margin.
var endToEnd = []metricDef{
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the numbers of single layers, taken from the traced
// pass and the probes. A layer a workload does not exercise reports 0.
// README.md says which end-to-end metric each should move, on which
// workload.
var perLayer = []metricDef{
	{Name: "sim.events_per_pkt", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.heap_len_mean", Unit: "count", Better: "lower"},
	{Name: "sim.probe_ns_per_event_h16", Unit: "ns", Better: "lower"},
	{Name: "sim.probe_ns_per_event_h1024", Unit: "ns", Better: "lower"},
	{Name: "sim.probe_rearm_ns", Unit: "ns", Better: "lower"},

	{Name: "packet.reuse_share", Unit: "share", Better: "higher"},
	{Name: "packet.gets_per_pkt", Unit: "count", Better: "lower"},

	{Name: "queue.drop_share", Unit: "share", Better: "lower"},
	{Name: "queue.mark_share", Unit: "share", Better: "lower"},
	{Name: "queue.probe_ns_per_pkt.droptail", Unit: "ns", Better: "lower"},
	{Name: "queue.probe_ns_per_pkt.codel", Unit: "ns", Better: "lower"},
	{Name: "queue.probe_ns_per_pkt.sfqcodel", Unit: "ns", Better: "lower"},

	{Name: "remycc.probe_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "remycc.probe_lookup_uncached_ns", Unit: "ns", Better: "lower"},
	{Name: "remycc.probe_marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "remycc.tree_bytes", Unit: "B", Better: "lower"},

	{Name: "netsim.retx_share", Unit: "share", Better: "lower"},
	{Name: "netsim.timeouts_per_run", Unit: "count", Better: "lower"},
	{Name: "netsim.reordered_share", Unit: "share", Better: "lower"},
	{Name: "netsim.hops_per_pkt", Unit: "count", Better: "lower"},

	{Name: "scenario.layout_us", Unit: "us", Better: "lower"},
	{Name: "scenario.build_us", Unit: "us", Better: "lower"},
	{Name: "scenario.build_allocs", Unit: "count", Better: "lower"},
	{Name: "scenario.finish_us", Unit: "us", Better: "lower"},
	{Name: "scenario.build_share", Unit: "share", Better: "lower"},
	{Name: "scenario.recycle_saving_us", Unit: "us", Better: "higher"},

	{Name: "remy.slots", Unit: "count", Better: "lower"},
	{Name: "remy.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "remy.draw_memo_hit_share", Unit: "share", Better: "higher"},
	{Name: "remy.gen_wall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "remy.ns_per_slot_floor", Unit: "ns", Better: "lower"},
	{Name: "remy.floor_share", Unit: "share", Better: "lower"},
	{Name: "remy.train_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "remy.train_ms_p99", Unit: "ms", Better: "lower"},

	{Name: "shard.probe_job_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.probe_result_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.job_bytes", Unit: "B", Better: "lower"},
	{Name: "shard.result_bytes", Unit: "B", Better: "lower"},
	{Name: "shard.jobs_per_slot", Unit: "count", Better: "lower"},
	{Name: "shard.lane_job_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "shard.requeues", Unit: "count", Better: "lower"},
	{Name: "shard.fallbacks", Unit: "count", Better: "lower"},
	{Name: "shard.reconnects", Unit: "count", Better: "lower"},
	{Name: "shard.cfg_refetches", Unit: "count", Better: "lower"},
	{Name: "shard.fabric_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "shardnet.wire_bytes_per_slot", Unit: "B", Better: "lower"},
	{Name: "shardnet.reads_per_job", Unit: "count", Better: "lower"},
	{Name: "shardnet.server_job_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "shardnet.wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "shardnet.server_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "shardnet.cfg_misses", Unit: "count", Better: "lower"},
	{Name: "shardnet.heartbeats", Unit: "count", Better: "lower"},
	{Name: "cache.probe_get_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.probe_put_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.probe_disk_get_us", Unit: "us", Better: "lower"},
	{Name: "cache.probe_disk_put_us", Unit: "us", Better: "lower"},

	// Demoted from end to end: neither repeats across seeds. The bytes a
	// scenario run allocates follow ring and slab growth at the seed's
	// peak window, and peak RSS follows garbage-collection timing (17 %
	// over ten seeds on eval-dumbbell). See README.md.
	{Name: "mem.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "mem.peak_rss_mb", Unit: "MiB", Better: "lower"},

	{Name: "telemetry.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported number with its unit, as the result line
// carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's numbers against one of the tables above.
type metricSet struct {
	vals map[string]metricValue
}

// newMetricSet starts every metric of defs at zero, so a layer the
// workload never touches still reports.
func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{vals: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		s.vals[d.Name] = metricValue{Unit: d.Unit}
	}
	return s
}

// set records v under name. A name outside the table is a bug in the
// harness, as is a value JSON cannot carry.
func (s *metricSet) set(name string, v float64) {
	cur, ok := s.vals[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("benchmark: metric %s is %v", name, v))
	}
	cur.Value = v
	s.vals[name] = cur
}

// ratio is a/b, or 0 when the layer saw no traffic.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// manifest renders BENCHMARK.json from the tables and the workload
// list.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
