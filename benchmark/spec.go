package main

import (
	"fmt"
	"sort"
)

// metricSpec declares one metric; BENCHMARK.json repeats the same names,
// units and directions (bench_test.go holds the two together).
type metricSpec struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees, each taken over the
// measured slices of an untraced run (see slices); the timings among them are
// in reference seconds (reference.go).  README.md, "Bounds", says where the
// bounds come from.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.05},
	{"cpu_s_per_kop", "s", "lower", 0.20},
}

// perLayer are the metrics of single layers, taken in a traced run.
var perLayer = []metricSpec{
	// bare compute under the coordination layer
	{name: "boxes.us_per_op", unit: "us", better: "lower"},
	{name: "coord.overhead_x", unit: "x", better: "lower"},
	// internal/core: plan
	{name: "core.compile.ms", unit: "ms", better: "lower"},
	{name: "core.plan.start_us", unit: "us", better: "lower"},
	{name: "core.plan.us_per_op", unit: "us", better: "lower"},
	{name: "core.plan.self_us_per_op", unit: "us", better: "lower"},
	{name: "core.plan.allocs_per_op", unit: "count", better: "lower"},
	{name: "core.p1_ops_per_s", unit: "1/s", better: "higher"},
	// the measured loop's latency tail, and the time a record spends inside
	// a saturated stream: too unsteady from run to run on a small shared
	// machine to carry a bound, so they are reported here
	{name: "loop.op_p99_ms", unit: "ms", better: "lower"},
	{name: "loop.transit_p50_ms", unit: "ms", better: "lower"},
	// internal/core: box engine
	{name: "core.box.w1_us_per_op", unit: "us", better: "lower"},
	{name: "core.box.wn_us_per_op", unit: "us", better: "lower"},
	{name: "core.box.calls_per_op", unit: "count", better: "lower"},
	// internal/core: frame transport
	{name: "core.stream.frames_per_record", unit: "count", better: "lower"},
	{name: "core.stream.records_per_op", unit: "count", better: "lower"},
	{name: "core.stream.frame_hwm", unit: "count", better: "lower"},
	{name: "core.stream.b1_us_per_op", unit: "us", better: "lower"},
	{name: "core.stream.b64_us_per_op", unit: "us", better: "lower"},
	// internal/core: fusion and filters
	{name: "core.fuse.groups", unit: "count", better: "higher"},
	{name: "core.fuse.fused_ns_per_record", unit: "ns", better: "lower"},
	{name: "core.fuse.unfused_ns_per_record", unit: "ns", better: "lower"},
	{name: "core.fuse.tap_ns_per_stage", unit: "ns", better: "lower"},
	{name: "core.fuse.filter_ns_per_stage", unit: "ns", better: "lower"},
	{name: "core.fuse.box_ns_per_stage", unit: "ns", better: "lower"},
	{name: "core.fuse.boxchain_b8_ratio", unit: "x", better: "higher"},
	// internal/core: combinators
	{name: "core.sync.fired_per_op", unit: "count", better: "lower"},
	{name: "core.split.replicas", unit: "count", better: "lower"},
	{name: "core.split.width_max", unit: "count", better: "lower"},
	{name: "core.star.replicas", unit: "count", better: "lower"},
	{name: "core.star.depth_max", unit: "count", better: "lower"},
	// internal/core: record arena
	{name: "core.arena.live_delta", unit: "count", better: "lower"},
	{name: "core.arena.recycled_share", unit: "share", better: "higher"},
	{name: "core.arena.disowned_per_op", unit: "count", better: "lower"},
	// snet/service: isolated sessions, one request each
	{name: "service.session.open_us", unit: "us", better: "lower"},
	{name: "service.session.send_us", unit: "us", better: "lower"},
	{name: "service.session.drain_us", unit: "us", better: "lower"},
	{name: "service.session.release_us", unit: "us", better: "lower"},
	{name: "service.session.us_per_op", unit: "us", better: "lower"},
	{name: "service.session.self_us_per_op", unit: "us", better: "lower"},
	// snet/service: the shared engine, and both modes streaming
	{name: "service.engine.open_us", unit: "us", better: "lower"},
	{name: "service.engine.us_per_op", unit: "us", better: "lower"},
	{name: "service.engine.us_per_record", unit: "us", better: "lower"},
	{name: "service.session.us_per_record", unit: "us", better: "lower"},
	{name: "service.engine.replicas_after", unit: "count", better: "lower"},
	// snet/service: codec and handler; net/http
	{name: "service.codec.decode_us", unit: "us", better: "lower"},
	{name: "service.codec.encode_us", unit: "us", better: "lower"},
	{name: "service.http.us_per_op", unit: "us", better: "lower"},
	{name: "service.http.self_us_per_op", unit: "us", better: "lower"},
	{name: "service.http.allocs_per_op", unit: "count", better: "lower"},
	{name: "net.loopback.us_per_op", unit: "us", better: "lower"},
	{name: "net.loopback.self_us_per_op", unit: "us", better: "lower"},
	{name: "net.http.echo_us_per_op", unit: "us", better: "lower"},
	{name: "ladder.sum_over_e2e", unit: "x", better: "lower"},
	// internal/sched + internal/array
	{name: "array.stencil_ms_p1", unit: "ms", better: "lower"},
	{name: "array.stencil_ms_pn", unit: "ms", better: "lower"},
	{name: "array.fold_ms_p1", unit: "ms", better: "lower"},
	{name: "array.fold_ms_pn", unit: "ms", better: "lower"},
	{name: "sched.speedup_pn", unit: "x", better: "higher"},
	{name: "twolevel.w1_p1_ops_per_s", unit: "1/s", better: "higher"},
	{name: "twolevel.w1_pn_ops_per_s", unit: "1/s", better: "higher"},
	{name: "twolevel.wn_p1_ops_per_s", unit: "1/s", better: "higher"},
	{name: "twolevel.wn_pn_ops_per_s", unit: "1/s", better: "higher"},
	// internal/sudoku, internal/sacvm
	{name: "sudoku.seq_ms_per_puzzle", unit: "ms", better: "lower"},
	{name: "sudoku.fig1_ms_per_puzzle", unit: "ms", better: "lower"},
	{name: "sudoku.fig2_ms_per_puzzle", unit: "ms", better: "lower"},
	{name: "sudoku.fig3_ms_per_puzzle", unit: "ms", better: "lower"},
	{name: "sudoku.box_calls_per_puzzle", unit: "count", better: "lower"},
	{name: "sacvm.interp_over_native", unit: "x", better: "lower"},
	// snet/lang, internal/analysis: the set-up path
	{name: "lang.parse_build_ms", unit: "ms", better: "lower"},
	{name: "analysis.verify_ms", unit: "ms", better: "lower"},
	{name: "analysis.bound_records", unit: "count", better: "lower"},
	// the process
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.goroutines_after", unit: "count", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects the values of one run against a list of specs.
type metrics struct {
	specs  []metricSpec
	values map[string]metric
}

func newMetrics(specs []metricSpec) *metrics {
	return &metrics{specs: specs, values: map[string]metric{}}
}

// set records a value under a declared name; an undeclared name is a bug in
// the benchmark.
func (m *metrics) set(name string, v float64) {
	for _, s := range m.specs {
		if s.name == name {
			m.values[name] = metric{Value: v, Unit: s.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

func (m *metrics) get(name string) float64 { return m.values[name].Value }

// missing lists the declared metrics that were never set.
func (m *metrics) missing() []string {
	var out []string
	for _, s := range m.specs {
		if _, ok := m.values[s.name]; !ok {
			out = append(out, s.name)
		}
	}
	sort.Strings(out)
	return out
}

// print lists every metric by name with its unit, in declaration order.
func (m *metrics) print() {
	for _, s := range m.specs {
		if v, ok := m.values[s.name]; ok {
			fmt.Printf("  %-36s %14.4f %s\n", s.name, v.Value, v.Unit)
		}
	}
}
