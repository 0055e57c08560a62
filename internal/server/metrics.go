package server

// Hand-rolled Prometheus text-format exposition (no dependencies): the
// GET /metrics endpoint renders the server's counters, the admission
// scheduler and result-cache snapshots, and per-endpoint HTTP latency
// histograms in the format any Prometheus-compatible scraper ingests.
// Series are emitted in a fixed order (endpoints sorted) so the output
// is deterministic and greppable.

import (
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphsql/internal/wire"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen for
// a service whose hits are microseconds and whose cold batched solves
// run for seconds.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. A plain mutex guards
// it: one observation per HTTP request is noise next to the request
// itself.
type histogram struct {
	mu     sync.Mutex
	counts []uint64 // one per bucket plus a final +Inf slot
	sum    float64
	total  uint64
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(latencyBuckets, v)
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make([]uint64, len(latencyBuckets)+1)
	}
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// endpointStats aggregates one endpoint's latency histogram and
// per-status response counts.
type endpointStats struct {
	latency   histogram
	mu        sync.Mutex
	responses map[int]uint64
}

// httpMetrics collects per-endpoint request instrumentation.
type httpMetrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{endpoints: make(map[string]*endpointStats)}
}

func (m *httpMetrics) endpoint(name string) *endpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	es, ok := m.endpoints[name]
	if !ok {
		es = &endpointStats{responses: make(map[int]uint64)}
		m.endpoints[name] = es
	}
	return es
}

func (m *httpMetrics) observe(endpoint string, status int, seconds float64) {
	es := m.endpoint(endpoint)
	es.latency.observe(seconds)
	es.mu.Lock()
	es.responses[status]++
	es.mu.Unlock()
}

// statusRecorder captures the response status for instrumentation and
// forwards Flush so the streaming path keeps flushing frames through
// the wrapper. wrote tracks whether the response head left the wrapper,
// which is what the panic-recovery middleware checks before attempting
// a structured 500.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	r.wrote = true
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with latency and response-code recording
// under the given endpoint label, plus the last-resort panic
// containment boundary: a panic that escapes the handler (one the
// engine boundary and the streaming paths did not already convert) is
// recovered here, counted in gsqld_panics_total, and answered with a
// structured 500 when the response head has not been sent yet — the
// process keeps serving either way. Admission grants are not released
// here: runQuery's own deferred release runs during the unwind, before
// this recover, so a panicking query cannot leak its slot.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		func() {
			defer func() {
				rv := recover()
				if rv == nil {
					return
				}
				s.recordPanic(r.Context(), rv, debug.Stack(), 0, "")
				s.errors.Add(1)
				if !rec.wrote {
					writeJSON(rec, http.StatusInternalServerError,
						wire.FromError(wire.CodePanic, fmt.Errorf("query panicked: %v", rv)))
				}
			}()
			h(rec, r)
		}()
		s.httpMetrics.observe(endpoint, rec.status, time.Since(start).Seconds())
	}
}

// stageMetrics aggregates per-stage query latency histograms
// (gsqld_query_stage_seconds): one series per root-level trace span
// name — cache, admission, plan, execute, encode.
type stageMetrics struct {
	mu     sync.Mutex
	stages map[string]*histogram
}

func newStageMetrics() *stageMetrics {
	return &stageMetrics{stages: make(map[string]*histogram)}
}

func (m *stageMetrics) observe(stage string, seconds float64) {
	m.mu.Lock()
	h, ok := m.stages[stage]
	if !ok {
		h = &histogram{}
		m.stages[stage] = h
	}
	m.mu.Unlock()
	h.observe(seconds)
}

// promWriter accumulates exposition lines with HELP/TYPE headers.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) header(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) value(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// Integral values render without an exponent so shell scrapers can
	// compare them numerically ('g' would print 1e+06).
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		s = strconv.FormatFloat(v, 'f', -1, 64)
	}
	fmt.Fprintf(&p.b, "%s%s %s\n", name, labels, s)
}

func (p *promWriter) counter(name, help string, v uint64) {
	p.header(name, help, "counter")
	p.value(name, "", float64(v))
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.value(name, "", v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	adm := s.adm.Snapshot()
	s.sessMu.Lock()
	sessions := len(s.sessions)
	s.sessMu.Unlock()

	p := &promWriter{}
	p.gauge("gsqld_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	p.counter("gsqld_queries_total", "Statements served, including cache hits.", s.queries.Load())
	p.counter("gsqld_query_errors_total", "Statements that returned an error, including cancellations.", s.errors.Load())
	p.counter("gsqld_queries_abandoned_total", "Statements abandoned by cancellation, timeout or client disconnect.", s.canceled.Load())
	p.counter("gsqld_loads_total", "Completed graph (re)loads.", s.loads.Load())
	p.counter("gsqld_panics_total", "Query panics contained by the recovery layers; the process kept serving.", s.panics.Load())
	p.gauge("gsqld_sessions", "Live entries in the session table.", float64(sessions))

	p.gauge("gsqld_queries_in_flight", "Queries currently executing.", float64(adm.InFlight))
	p.gauge("gsqld_queries_queued", "Queries waiting for admission.", float64(adm.Queued))
	p.gauge("gsqld_admission_max_in_flight", "Configured in-flight limit.", float64(adm.MaxInFlight))
	p.gauge("gsqld_admission_queue_depth", "Configured admission queue capacity.", float64(adm.QueueDepth))
	p.counter("gsqld_admission_admitted_total", "Queries granted an execution slot.", adm.Admitted)
	p.counter("gsqld_admission_queued_total", "Queries that waited in the admission queue.", adm.EverQueued)
	p.counter("gsqld_admission_rejected_total", "Queries rejected with queue_full.", adm.Rejected)
	p.counter("gsqld_admission_abandoned_total", "Admission waits abandoned by cancellation.", adm.Abandoned)
	p.gauge("gsqld_workers_total", "Total worker budget divided across queries.", float64(adm.Workers))
	p.gauge("gsqld_workers_free", "Worker units not currently granted.", float64(adm.WorkersFree))
	p.gauge("gsqld_workers_per_query_cap", "Per-query worker grant ceiling.", float64(adm.PerQueryCap))

	if s.cache != nil {
		cs := s.cache.Snapshot()
		p.counter("gsqld_cache_hits_total", "SELECTs served from the result cache.", cs.Hits)
		p.counter("gsqld_cache_misses_total", "Cacheable SELECTs that had to execute.", cs.Misses)
		p.counter("gsqld_cache_evictions_total", "Entries evicted by the LRU budgets.", cs.Evictions)
		p.counter("gsqld_cache_invalidated_entries_total", "Entries purged by reloads and writes.", cs.Invalidated)
		p.gauge("gsqld_cache_entries", "Live result-cache entries.", float64(cs.Entries))
		p.gauge("gsqld_cache_bytes", "Bytes held by the result cache: keys and encoded rows.", float64(cs.Bytes))
	}

	// Plan-cache counters summed over the registry's current databases
	// (a reload resets its graph's contribution — the counters live on
	// the swapped-out DB). Hits mean literal variants and prepared
	// replays reused a parsed+bound plan instead of re-planning.
	var planHits, planMisses uint64
	for _, gi := range s.reg.Info() {
		planHits += gi.PlanCacheHits
		planMisses += gi.PlanCacheMisses
	}
	p.counter("gsqld_plan_cache_hits_total", "Statements that reused a cached session plan (fingerprint-normalized).", planHits)
	p.counter("gsqld_plan_cache_misses_total", "Statements that parsed, bound and planned from scratch.", planMisses)

	// Per-stage query latency, stages sorted for determinism. The
	// stages are the root-level trace spans every query records; a
	// stage absent so far (e.g. no cache configured) simply has no
	// series yet.
	s.stageHist.mu.Lock()
	stageNames := make([]string, 0, len(s.stageHist.stages))
	for name := range s.stageHist.stages {
		stageNames = append(stageNames, name)
	}
	s.stageHist.mu.Unlock()
	sort.Strings(stageNames)
	if len(stageNames) > 0 {
		p.header("gsqld_query_stage_seconds", "Per-stage query latency (cache, admission, plan, execute, encode).", "histogram")
		for _, name := range stageNames {
			s.stageHist.mu.Lock()
			h := s.stageHist.stages[name]
			s.stageHist.mu.Unlock()
			h.mu.Lock()
			counts := append([]uint64(nil), h.counts...)
			sum, total := h.sum, h.total
			h.mu.Unlock()
			if counts == nil {
				counts = make([]uint64, len(latencyBuckets)+1)
			}
			cum := uint64(0)
			for i, ub := range latencyBuckets {
				cum += counts[i]
				p.value("gsqld_query_stage_seconds_bucket",
					fmt.Sprintf(`stage=%q,le="%s"`, name, strconv.FormatFloat(ub, 'g', -1, 64)), float64(cum))
			}
			cum += counts[len(latencyBuckets)]
			p.value("gsqld_query_stage_seconds_bucket",
				fmt.Sprintf(`stage=%q,le="+Inf"`, name), float64(cum))
			p.value("gsqld_query_stage_seconds_sum", fmt.Sprintf(`stage=%q`, name), sum)
			p.value("gsqld_query_stage_seconds_count", fmt.Sprintf(`stage=%q`, name), float64(total))
		}
	}

	// Per-endpoint HTTP series, endpoints sorted for determinism.
	s.httpMetrics.mu.Lock()
	names := make([]string, 0, len(s.httpMetrics.endpoints))
	for name := range s.httpMetrics.endpoints {
		names = append(names, name)
	}
	s.httpMetrics.mu.Unlock()
	sort.Strings(names)

	p.header("gsqld_http_responses_total", "HTTP responses by endpoint and status code.", "counter")
	for _, name := range names {
		es := s.httpMetrics.endpoint(name)
		es.mu.Lock()
		codes := make([]int, 0, len(es.responses))
		for c := range es.responses {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			p.value("gsqld_http_responses_total",
				fmt.Sprintf(`endpoint=%q,code="%d"`, name, c), float64(es.responses[c]))
		}
		es.mu.Unlock()
	}

	p.header("gsqld_http_request_duration_seconds", "HTTP request latency by endpoint.", "histogram")
	for _, name := range names {
		es := s.httpMetrics.endpoint(name)
		es.latency.mu.Lock()
		counts := append([]uint64(nil), es.latency.counts...)
		sum, total := es.latency.sum, es.latency.total
		es.latency.mu.Unlock()
		if counts == nil {
			counts = make([]uint64, len(latencyBuckets)+1)
		}
		label := name
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += counts[i]
			p.value("gsqld_http_request_duration_seconds_bucket",
				fmt.Sprintf(`endpoint=%q,le="%s"`, label, strconv.FormatFloat(ub, 'g', -1, 64)), float64(cum))
		}
		cum += counts[len(latencyBuckets)]
		p.value("gsqld_http_request_duration_seconds_bucket",
			fmt.Sprintf(`endpoint=%q,le="+Inf"`, label), float64(cum))
		p.value("gsqld_http_request_duration_seconds_sum", fmt.Sprintf(`endpoint=%q`, label), sum)
		p.value("gsqld_http_request_duration_seconds_count", fmt.Sprintf(`endpoint=%q`, label), float64(total))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.b.String())
}
