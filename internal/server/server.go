// Package server turns the embedded graphsql engine into a
// long-running, concurrency-safe query service: an HTTP/JSON API over
// a named multi-graph registry with copy-on-swap reloads, per-session
// state (SET settings, a prepared parse+plan cache, and wire-level
// prepared statements), an admission-control scheduler that divides the
// machine's worker budget across concurrent queries, a result-set cache
// that serves repeated SELECTs without touching the engine, chunked
// streaming for large results, and Prometheus-format metrics.
//
// Endpoints:
//
//	POST /query               run one statement (wire.QueryRequest);
//	                          "stream":true selects the chunked NDJSON
//	                          encoding of wire/stream.go
//	POST /prepare             register a statement in a session
//	                          (wire.PrepareRequest)
//	POST /execute             run a registered statement by id
//	                          (wire.ExecuteRequest)
//	POST /graphs/{name}/load  build+swap a named graph (wire.LoadRequest)
//	GET  /healthz             liveness probe
//	GET  /stats               counters, admission, cache and registry
//	                          state as JSON
//	GET  /queries             in-flight queries: id, fingerprint, live
//	                          stage, elapsed, granted workers
//	GET  /metrics             Prometheus text-format exposition
//
// Observability: "trace":true on /query or /execute returns the span
// tree of internal/trace in the response (buffered body or stream
// trailer); every query emits a structured slog line with per-stage
// durations (Config.SlowQueryMillis selects the WARN threshold); and
// /metrics carries per-stage latency histograms
// (gsqld_query_stage_seconds).
//
// Concurrency model: SELECTs over one graph run concurrently (the
// facade's read lock), writers serialize, and a reload never blocks
// readers — it builds the replacement database off to the side and
// swaps an atomic pointer. Admission bounds the blast radius of
// expensive queries: at most MaxInFlight queries run at once with a
// per-query worker cap, QueueDepth more wait FIFO, and anything beyond
// that is rejected immediately with queue_full so overload degrades
// predictably instead of collapsing.
//
// Result cache: SELECT results are cached keyed by (graph, registry
// generation, engine data version, statement, bound args) — see
// ResultCache — as the rows their first response encoded, and a hit is
// served from memory without consuming an admission slot or encoding a
// cell. Reloads and write statements can never leak a stale entry to a
// later reader: both bump a component of the key.
//
// One path: every statement runs the same way whichever response
// encoding was asked for — Prepare → ExecPreparedCursor → Rows → sink.
// runQuery builds one graphsql.Stmt per request, calls
// Session.QueryStmt at one site and respond drains the
// cursor through one loop into a sink, whose two encodings (one JSON
// body, NDJSON frames) are two wire formats of cells encoded once, not
// two executions; a cache hit hands the sink its stored rows. Failures
// have one classifier (failExec), writes one cache purge and misses one
// cache fill, so the encodings cannot disagree on an error code, a
// counter or a purge.
//
// Cancellation: a client disconnect (or timeout) cancels the request
// context, which aborts the query at the nearest operator boundary,
// source-group boundary, in-traversal poll, or graph-construction chunk
// boundary — a disconnected client frees its worker grant within
// milliseconds rather than pinning it until the query finishes. A
// request canceled while waiting in the admission queue leaves the
// queue without ever consuming an in-flight slot or a worker grant; a
// streaming response canceled mid-flight ends with an error trailer
// frame; a graph load whose client is gone stops at the next statement
// of its script and the previous generation keeps serving.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphsql"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/wire"
)

// Config tunes a Server. Zero values pick sensible defaults.
type Config struct {
	// DefaultGraph names the graph served when requests omit one;
	// defaults to "default". The graph is created empty at startup.
	DefaultGraph string
	// Parallelism is the engine worker budget of loaded graphs
	// (0 = one worker per CPU).
	Parallelism int
	// MaxInFlight bounds concurrently executing queries; defaults to
	// GOMAXPROCS.
	MaxInFlight int
	// QueueDepth bounds queries waiting for admission: 0 defaults to
	// 4 × MaxInFlight, negative disables queueing (immediate rejection
	// once MaxInFlight is reached).
	QueueDepth int
	// TotalWorkers is the worker budget admission divides across
	// queries; defaults to GOMAXPROCS.
	TotalWorkers int
	// PerQueryWorkers caps one query's grant; defaults to TotalWorkers.
	PerQueryWorkers int
	// QueryTimeout bounds each query's execution; 0 means no limit.
	QueryTimeout time.Duration
	// QueueWait bounds how long a query may wait in the admission queue
	// before the server gives up on it with queue_timeout (503 +
	// Retry-After). Distinct from QueryTimeout, which bounds execution:
	// under overload the queue-wait deadline sheds load that has not
	// consumed anything yet — and such a rejection is always safe to
	// retry. 0 disables the deadline (queued queries wait until the
	// client gives up).
	QueueWait time.Duration
	// MaxSessions bounds the session table; the least-recently-used
	// session is evicted beyond it. Defaults to 1024.
	MaxSessions int
	// CacheEntries bounds the result cache's entry count: 0 defaults to
	// 512, negative disables the cache entirely.
	CacheEntries int
	// CacheBytes bounds the bytes of the result cache's entries (keys
	// and encoded rows, counted exactly); 0 defaults to 64 MiB.
	CacheBytes int64
	// Logger receives the structured query log and panic reports;
	// defaults to slog.Default(). Every completed query logs at DEBUG
	// ("query"); queries at or over the slow threshold log at WARN
	// ("slow query").
	Logger *slog.Logger
	// SlowQueryMillis is the slow-query log threshold in milliseconds:
	// positive logs queries at/over it at WARN, zero disables the
	// slow-query log, negative logs every query (smoke tests).
	SlowQueryMillis int
}

func (c *Config) defaults() {
	if c.DefaultGraph == "" {
		c.DefaultGraph = "default"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 4 * c.MaxInFlight
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.TotalWorkers <= 0 {
		c.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
}

// Server is the HTTP query service. Create with New, serve its
// Handler.
type Server struct {
	cfg         Config
	reg         *Registry
	adm         *Admission
	cache       *ResultCache // nil when disabled
	httpMetrics *httpMetrics
	stageHist   *stageMetrics
	inflight    *inflightTable
	logger      *slog.Logger
	mux         *http.ServeMux

	// queryID numbers queries for the query log and GET /queries.
	queryID atomic.Uint64

	sessMu   sync.Mutex
	sessions map[string]*serverSession
	sessTick uint64 // LRU clock

	// counters
	queries  atomic.Uint64
	errors   atomic.Uint64
	canceled atomic.Uint64
	loads    atomic.Uint64
	// panics counts contained query panics (gsqld_panics_total);
	// lastPanic is the UnixNano of the most recent one (0 = never),
	// which /healthz folds into its degraded signal.
	panics    atomic.Uint64
	lastPanic atomic.Int64
	started   time.Time
}

// serverSession is one client session: per-graph facade sessions so
// SET settings and prepared plans survive across requests, plus the
// statements registered via POST /prepare. A reload swaps the graph's
// database; the stale binding is detected by pointer comparison and
// replaced (settings reset with the new generation).
type serverSession struct {
	mu       sync.Mutex
	byGraph  map[string]*boundSession
	stmts    map[string]preparedStmt
	nextStmt int
	lastUse  uint64
}

type boundSession struct {
	db   *graphsql.DB
	sess *graphsql.Session
}

// preparedStmt is a wire-level prepared statement: the id resolves to
// the statement text, which the facade session's plan cache then maps
// to a parsed+bound plan (so /execute skips parse, bind and rewrite).
type preparedStmt struct {
	graph string
	sql   string
}

// maxSessionStmts bounds one session's statement registry; past it the
// registry is dropped wholesale — mirroring the facade plan cache —
// and stale ids answer /execute with unknown-statement, prompting the
// client to re-prepare. A client replaying a bounded statement set
// never hits this; it exists so one session cannot grow server memory
// without bound via /prepare.
const maxSessionStmts = 256

// registerStmt assigns the next statement id of the session.
func (ss *serverSession) registerStmt(graph, sql string) string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.stmts == nil || len(ss.stmts) >= maxSessionStmts {
		ss.stmts = make(map[string]preparedStmt)
	}
	ss.nextStmt++
	id := "stmt-" + strconv.Itoa(ss.nextStmt)
	ss.stmts[id] = preparedStmt{graph: graph, sql: sql}
	return id
}

// stmt resolves a registered statement id.
func (ss *serverSession) stmt(id string) (preparedStmt, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st, ok := ss.stmts[id]
	return st, ok
}

// New builds a server and registers its default (empty) graph.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	s := &Server{
		cfg:         cfg,
		reg:         NewRegistry(cfg.Parallelism),
		adm:         NewAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.TotalWorkers, cfg.PerQueryWorkers),
		httpMetrics: newHTTPMetrics(),
		stageHist:   newStageMetrics(),
		inflight:    newInflightTable(),
		logger:      lg,
		sessions:    make(map[string]*serverSession),
		started:     time.Now(),
	}
	if cfg.CacheEntries > 0 {
		s.cache = NewResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	s.reg.swap(cfg.DefaultGraph, graphsql.Open(graphsql.WithParallelism(cfg.Parallelism)))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /queries", s.instrument("/queries", s.handleQueries))
	mux.HandleFunc("POST /query", s.instrument("/query", s.handleQuery))
	mux.HandleFunc("POST /prepare", s.instrument("/prepare", s.handlePrepare))
	mux.HandleFunc("POST /execute", s.instrument("/execute", s.handleExecute))
	mux.HandleFunc("POST /graphs/{name}/load", s.instrument("/graphs/load", s.handleLoad))
	s.mux = mux
	return s, nil
}

// Registry exposes the graph registry (startup preloading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Admission exposes the scheduler (tests, instrumentation).
func (s *Server) Admission() *Admission { return s.adm }

// Cache exposes the result cache; nil when disabled.
func (s *Server) Cache() *ResultCache { return s.cache }

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// HealthResponse is the GET /healthz payload. The probe always answers
// HTTP 200 while the process serves (liveness); Status degrades to
// "degraded" when the admission queue is at least half full or a panic
// was contained within the last minute, so dashboards and load
// balancers can drain a struggling instance before it starts shedding.
type HealthResponse struct {
	Status          string `json:"status"` // "ok" | "degraded"
	InFlight        int    `json:"in_flight"`
	Queued          int    `json:"queued"`
	QueueDepth      int    `json:"queue_depth"`
	PanicsRecovered uint64 `json:"panics_recovered"`
	// SecondsSinceLastPanic is omitted until the first contained panic.
	SecondsSinceLastPanic float64 `json:"seconds_since_last_panic,omitempty"`
}

// degradedPanicWindow is how long one contained panic keeps /healthz
// reporting degraded.
const degradedPanicWindow = time.Minute

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	adm := s.adm.Snapshot()
	resp := &HealthResponse{
		Status:          "ok",
		InFlight:        adm.InFlight,
		Queued:          adm.Queued,
		QueueDepth:      adm.QueueDepth,
		PanicsRecovered: s.panics.Load(),
	}
	if last := s.lastPanic.Load(); last != 0 {
		since := time.Since(time.Unix(0, last))
		resp.SecondsSinceLastPanic = since.Seconds()
		if since < degradedPanicWindow {
			resp.Status = "degraded"
		}
	}
	if adm.QueueDepth > 0 && 2*adm.Queued >= adm.QueueDepth {
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

// recordPanic counts one contained panic and logs it with the
// panicking goroutine's stack — the only place the stack goes; wire
// responses carry just the panic value. qid/fp tag the query when the
// panic was caught inside a query path (the last-resort middleware
// recover passes zero values: it no longer knows which query it was).
// ctx is the request's context, threaded through for handler-aware
// loggers; it may already be canceled by the time a panic is recorded.
func (s *Server) recordPanic(ctx context.Context, v any, stack []byte, qid uint64, fp string) {
	s.panics.Add(1)
	s.lastPanic.Store(time.Now().UnixNano())
	s.logger.LogAttrs(ctx, slog.LevelError, "contained query panic",
		slog.Uint64("query_id", qid),
		slog.String("fingerprint", fp),
		slog.Any("panic", v),
		slog.String("stack", string(stack)))
}

// session resolves (or creates) the named session, updating its LRU
// stamp and evicting the oldest session beyond the cap.
func (s *Server) session(id string) *serverSession {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sessTick++
	sess, ok := s.sessions[id]
	if !ok {
		if len(s.sessions) >= s.cfg.MaxSessions {
			var oldestID string
			var oldest uint64 = ^uint64(0)
			for k, v := range s.sessions {
				if v.lastUse < oldest {
					oldest, oldestID = v.lastUse, k
				}
			}
			delete(s.sessions, oldestID)
		}
		sess = &serverSession{byGraph: make(map[string]*boundSession)}
		s.sessions[id] = sess
	}
	sess.lastUse = s.sessTick
	return sess
}

// bind resolves the facade session of (session, graph), re-binding when
// the graph's database was swapped by a reload.
func (ss *serverSession) bind(graph string, db *graphsql.DB) *graphsql.Session {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	b := ss.byGraph[graph]
	if b == nil || b.db != db {
		b = &boundSession{db: db, sess: db.Session()}
		ss.byGraph[graph] = b
	}
	return b.sess
}

// writeJSON marshals a wire payload with the proper status code.
func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(payload)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	w.Write(data)
}

// errorStatus maps wire error codes onto HTTP statuses.
func errorStatus(code string) int {
	switch code {
	case wire.CodeQueueFull, wire.CodeQueueTimeout:
		return http.StatusServiceUnavailable
	case wire.CodeUnknownGraph:
		return http.StatusNotFound
	case wire.CodeCanceled:
		return 499 // client closed request (nginx convention)
	case wire.CodeTimeout:
		return http.StatusGatewayTimeout
	case wire.CodeInvalidRequest:
		return http.StatusBadRequest
	case wire.CodeInternal, wire.CodePanic:
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// failQuery answers a request that failed before it had a response
// sink — malformed input, an unknown graph, admission — with the
// buffered error body.
func (s *Server) failQuery(w http.ResponseWriter, code string, err error) {
	s.fail(&sink{w: w}, code, err)
}

// fail counts one failed query and reports it through the sink. A
// canceled or timed-out query also counts as abandoned, in whichever
// encoding the client was (no longer) reading.
func (s *Server) fail(out *sink, code string, err error) {
	s.errors.Add(1)
	if code == wire.CodeCanceled || code == wire.CodeTimeout {
		s.canceled.Add(1)
	}
	out.fail(code, err)
}

// failExec is the one classifier of a failure between admission and
// the last byte — opening the statement, draining it, or writing the
// response: contained panic beats injected fault or unencodable cell
// (wire.ErrorCode: internal — the statement was fine, the server failed
// it) beats timeout beats cancellation beats fallback, what an error
// carrying none of those signals means where it arose: sql_error from
// execution, canceled from the sink (a write to a client that is gone).
// It returns the wire code it chose, which the query log records.
func (s *Server) failExec(rq *running, err error, fallback string) string {
	code := wire.ErrorCode(err, "")
	switch {
	case code == wire.CodePanic:
		var qp *graphsql.QueryPanicError
		errors.As(err, &qp)
		s.recordPanic(rq.ctx, qp.Value, qp.Stack, rq.qid, rq.fp)
	case code != "":
	case rq.timedOut():
		code = wire.CodeTimeout
	case rq.ctx.Err() != nil:
		code = wire.CodeCanceled
	default:
		code = fallback
	}
	s.fail(rq.out, code, err)
	return code
}

// retryAfterHeader stamps the Retry-After hint on a load-shedding
// response (queue_full / queue_timeout), in the whole seconds the
// header grammar requires, rounded up so clients never return early.
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	secs := int(math.Ceil(s.adm.RetryAfter().Seconds()))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := wire.DecodeRequest[wire.QueryRequest](io.LimitReader(r.Body, 16<<20))
	if err != nil {
		s.failQuery(w, wire.CodeInvalidRequest, err)
		return
	}
	if req.SQL == "" {
		s.failQuery(w, wire.CodeInvalidRequest, errors.New("missing sql"))
		return
	}
	s.runQuery(w, r, req)
}

// runQuery executes one statement — of POST /query, or the registered
// statement of POST /execute: result-cache lookup, admission, one
// QueryRows call on the session facade, and one drain of its cursor
// into the response sink of the requested encoding. A cache hit goes
// through the same respond, with its stored rows and no cursor.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, q *wire.QueryRequest) {
	graphName := q.Graph
	if graphName == "" {
		graphName = s.cfg.DefaultGraph
	}
	db, gen, ok := s.reg.Resolve(graphName)
	if !ok {
		s.failQuery(w, wire.CodeUnknownGraph, fmt.Errorf("graph %q is not loaded", graphName))
		return
	}

	// Resolve the server session up front (not lazily at execution):
	// a client whose requests keep hitting the result cache is still
	// active, and must keep its LRU stamp fresh or eviction would
	// retire its prepared statements and SET settings mid-use.
	var ssess *serverSession
	if q.Session != "" {
		ssess = s.session(q.Session)
	}

	// The statement's identity is built once: its fingerprint names the
	// statement shape in the log and the in-flight listing without
	// quoting literal values, its key is the statement half of the
	// result-cache key, its keyword decides whether the result may be
	// cached or the cache must be purged, and the session runs it as is.
	st, err := graphsql.NewStmt(q.SQL, q.Args...)
	if err != nil {
		s.failQuery(w, wire.CodeSQL, err)
		return
	}
	fp := st.Fingerprint()

	// Every query records a trace: its root-level spans (cache,
	// admission, plan, execute, encode) feed the per-stage latency
	// histograms and the query log, its open span names GET /queries'
	// "stage" column, and — when the request set "trace": true — its
	// tree rides back in the response.
	qid := s.queryID.Add(1)
	tr := trace.New()
	start := time.Now()
	outcome := "ok"
	rowsOut := -1
	defer func() {
		s.finishQuery(r.Context(), qid, graphName, fp, tr, start, outcome, rowsOut)
	}()

	// The two response encodings are one sink over one drain of the
	// executor's batches. frame is the rows per NDJSON frame (0: the
	// single JSON body) — and the executor's batch bound, so a
	// small-batch stream starts flowing after the first few rows are
	// computed instead of after the first 1024.
	rq := &running{ctx: r.Context(), timedOut: func() bool { return false }, qid: qid, fp: fp}
	if q.Trace {
		rq.traced = tr
	}
	frame := 0
	if q.Stream { // BatchRows 0 is DefaultBatchRows; at most MaxBatchRows
		frame = min(cmp.Or(max(q.BatchRows, 0), wire.DefaultBatchRows), wire.MaxBatchRows)
	}
	rq.out = &sink{w: w, tr: tr, frame: frame}

	// Result-cache lookup. The generation and data version are read
	// BEFORE execution: a write racing this request can at worst make
	// us store a fresher result under the older key — a key no future
	// request computes again — never serve an older result under a
	// fresher key. A hit consumes no admission slot: it is memory out.
	//
	// The statement half of the key is the Stmt's: literals rewrite to
	// placeholders and their values fold into the typed argument list,
	// so `... WHERE id = 7` and `... WHERE id = ?` with arg 7 compute the
	// same key (while `id = 8` stays distinct — the arguments are part
	// of the key). When normalization declines the statement — or the
	// argument count does not match its placeholders — the raw text keys
	// the entry, which is always correct, just less shared.
	var key string
	if s.cache != nil && st.Reads() {
		key = cacheKey(graphName, gen, db.DataVersion(), st)
		spCache := tr.Begin(trace.NoSpan, "cache")
		cached, hit := s.cache.Get(key)
		tr.End(spCache)
		tr.SetResultCacheHit(hit)
		if hit {
			// The entry holds the rows the first response encoded, so
			// writing them again reproduces it byte for byte in either
			// encoding, at any frame size, with no cell encoded. (A
			// trace, when requested, is per-request by nature and rides
			// outside that equivalence.)
			s.queries.Add(1)
			outcome, rowsOut = s.respond(rq, cached, nil), rq.out.sent()
			return
		}
	}

	// The request context is canceled when the client disconnects; the
	// timeout (request-level, else server default) stacks on top.
	timeout := s.cfg.QueryTimeout
	if q.TimeoutMillis > 0 {
		timeout = time.Duration(q.TimeoutMillis) * time.Millisecond
	}
	if timeout > 0 {
		tctx, cancel := context.WithTimeout(rq.ctx, timeout)
		defer cancel()
		rq.timedOut = func() bool { return tctx.Err() == context.DeadlineExceeded }
		rq.ctx = tctx
	}
	ctx := rq.ctx

	// Resolve the facade session (one-shot sessions are throwaway) and
	// its worker request for admission.
	var fsess *graphsql.Session
	if ssess != nil {
		fsess = ssess.bind(graphName, db)
	} else {
		fsess = db.Session()
	}
	want := q.Workers
	if want <= 0 {
		if sp := fsess.Parallelism(); sp > 0 {
			want = sp
		} else if sp == 0 {
			want = s.adm.PerQueryCap() // SET parallelism = 0: one per CPU
		}
	}

	// The queue-wait deadline (when configured) bounds only Acquire —
	// time spent waiting for an execution slot — never execution itself;
	// that is QueryTimeout's job.
	acqCtx := ctx
	if s.cfg.QueueWait > 0 {
		var acqCancel context.CancelFunc
		acqCtx, acqCancel = context.WithTimeout(ctx, s.cfg.QueueWait)
		defer acqCancel()
	}
	// Registered before Acquire so queued queries are already visible
	// in GET /queries (their stage reads "admission").
	inq := s.inflight.add(qid, graphName, fp, tr)
	defer s.inflight.remove(qid)
	spAdm := tr.Begin(trace.NoSpan, "admission")
	grant, err := s.adm.Acquire(acqCtx, want)
	tr.End(spAdm)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			outcome = wire.CodeQueueFull
			s.retryAfterHeader(w)
			s.failQuery(w, wire.CodeQueueFull, err)
		case rq.timedOut():
			outcome = wire.CodeTimeout
			s.failQuery(w, wire.CodeTimeout, err)
		case ctx.Err() == nil:
			// Only the queue-wait deadline expired: the client is still
			// connected and nothing has executed, so a retry (after the
			// hint) is always safe.
			outcome = wire.CodeQueueTimeout
			s.retryAfterHeader(w)
			s.failQuery(w, wire.CodeQueueTimeout,
				fmt.Errorf("queued longer than the queue-wait deadline (%s)", s.cfg.QueueWait))
		default:
			outcome = wire.CodeCanceled
			s.failQuery(w, wire.CodeCanceled, err)
		}
		return
	}
	inq.workers.Store(int32(grant.Workers))
	// The grant goes back exactly once no matter how this request ends —
	// including a panic unwinding to the middleware recover, which this
	// deferred release runs before. It is held through the drain: the
	// engine does its work while the response is being written, so the
	// slot stays occupied until the last byte (or the failure) — a query
	// is in flight for exactly as long as it is executing.
	defer grant.Release()

	s.queries.Add(1)
	opts := graphsql.QueryOptions{Workers: grant.Workers, Trace: tr, BatchRows: frame}
	rows, err := fsess.QueryStmt(ctx, opts, st)
	// Writes purge the graph's cached results once they finish — a write
	// executes to completion inside QueryStmt, under the write lock. The
	// data-version key already guarantees no stale hit; the purge just
	// releases the memory eagerly.
	if s.cache != nil && st.Writes() {
		s.cache.InvalidateGraph(graphName)
	}
	if err != nil {
		outcome = s.failExec(rq, err, wire.CodeSQL)
		return
	}
	// The cursor owns a live operator tree; release it even when the
	// response is torn before exhaustion (client gone mid-stream).
	defer rows.Close()
	// A miss feeds the cache the rows its response encodes, admitted only
	// once the result is complete — a torn drain caches nothing. A
	// stream keeps its written rows only while they fit the admission
	// budget, so a result too big to cache is not held.
	if key != "" {
		rq.out.cache, rq.out.key, rq.out.graph = s.cache, key, graphName
	}
	outcome = s.respond(rq, wire.NewEncoded(rows.Columns), rows.NextChunk)
	rowsOut = rq.out.sent()
}

// finishQuery closes out one query's observability: stage histograms
// and the structured query log. Runs deferred from runQuery on every
// completion path.
func (s *Server) finishQuery(ctx context.Context, qid uint64, graph, fp string, tr *trace.Trace, start time.Time, outcome string, rowsOut int) {
	elapsed := time.Since(start)
	stages := tr.Stages()
	for _, st := range stages {
		s.stageHist.observe(st.Name, st.Dur.Seconds())
	}
	lvl, msg := slog.LevelDebug, "query"
	if ms := s.cfg.SlowQueryMillis; ms != 0 && (ms < 0 || elapsed >= time.Duration(ms)*time.Millisecond) {
		lvl, msg = slog.LevelWarn, "slow query"
	}
	if !s.logger.Enabled(ctx, lvl) {
		return
	}
	attrs := make([]slog.Attr, 0, 8+len(stages))
	attrs = append(attrs,
		slog.Uint64("query_id", qid),
		slog.String("graph", graph),
		slog.String("fingerprint", fp),
		slog.String("outcome", outcome),
		slog.Duration("elapsed", elapsed))
	if rowsOut >= 0 {
		attrs = append(attrs, slog.Int("rows", rowsOut))
	}
	if hit, seen := tr.ResultCacheHit(); seen {
		attrs = append(attrs, slog.Bool("cache_hit", hit))
	}
	if hit, known := tr.PlanCacheHit(); known {
		attrs = append(attrs, slog.Bool("plan_cache_hit", hit))
	}
	for _, st := range stages {
		attrs = append(attrs, slog.Duration("stage_"+st.Name, st.Dur))
	}
	s.logger.LogAttrs(ctx, lvl, msg, attrs...)
}

// running is the per-request state the failure classifier and the
// drain share: the (possibly deadline-wrapped) context, the query's
// identity for panic reports, and the sink the response — or the
// failure — goes to.
type running struct {
	ctx      context.Context
	timedOut func() bool
	qid      uint64
	fp       string
	// traced is the query's trace when the request asked for the span
	// tree in the response, nil otherwise.
	traced *trace.Trace
	out    *sink
}

// sink is the response to one request in the encoding it asked for:
// NDJSON frames of frame rows (wire/stream.go), or one buffered
// wire.QueryResponse body when frame is 0, both written from one
// wire.Encoded. respond calls header once, batch per executor batch of
// a live result, then finish; fail may come at any point before finish
// and answers in whatever shape the bytes already sent allow.
type sink struct {
	w     http.ResponseWriter
	tr    *trace.Trace // records the buffered body's "encode" stage
	frame int
	rows  *wire.Encoded
	// cache, when set, admits rows under key once they hold the whole
	// result, before the last byte goes out: a torn drain caches nothing.
	cache      *ResultCache
	key, graph string
	sw         *wire.StreamWriter // a stream's, once its header frame is out
	written    int                // rows of the buffered body, once it is out
}

// header opens the response over rows: empty for a live result, which
// batch fills, or a cache hit's, complete and shared (read only).
func (o *sink) header(rows *wire.Encoded) error {
	o.rows = rows
	if o.frame == 0 {
		return nil
	}
	o.w.Header().Set("Content-Type", wire.StreamContentType)
	o.sw = wire.NewStreamWriter(o.w).Frames(rows, o.frame, o.cache != nil)
	return o.sw.Header(rows.Columns())
}

// batch takes one executor batch of a live result and encodes it at
// once: the batch is only valid until the next pull (see the exec
// package doc). The buffered body keeps the encoded rows for finish; a
// stream writes every complete frame, and keeps the written rows only
// for the cache, while they fit its admission budget.
func (o *sink) batch(c *storage.Chunk) error {
	if o.sw == nil {
		return o.rows.AppendChunk(c)
	}
	if err := o.sw.Chunk(c); err != nil {
		return err
	}
	if o.cache != nil && o.rows.Size() > o.cache.AdmissionBudget() {
		o.sw.Forget()
		o.cache = nil
	}
	return nil
}

// sent returns the rows written to the client so far.
func (o *sink) sent() int {
	if o.sw != nil {
		return o.sw.Sent()
	}
	return o.written
}

// finish writes every row not yet written and completes a successful
// response; tree is the query's span tree when the request asked for
// it. It fails only before its last write: a cell that fails to encode
// (*wire.EncodeError), or a frame that cannot go out.
func (o *sink) finish(tree *trace.Node) (err error) {
	var body []byte
	if o.sw != nil {
		err = o.sw.Flush()
	} else {
		// tree was snapshotted before the encode span opens: it cannot
		// describe the encoding it is itself part of. The cells were
		// encoded batch by batch during the drain; this stage writes the
		// body around them.
		spEnc := o.tr.Begin(trace.NoSpan, "encode")
		body, err = o.rows.AppendResponse(nil, tree)
		o.tr.End(spEnc)
	}
	if err != nil {
		return err
	}
	if o.cache != nil {
		o.cache.insert(o.key, o.graph, o.rows)
	}
	// Past this point a failed write leaves nothing to tell the client.
	if o.sw != nil {
		o.sw.Trailer(tree)
		return nil
	}
	o.w.Header().Set("Content-Type", "application/json")
	o.w.Write(body)
	o.written = o.rows.Len()
	return nil
}

func (o *sink) fail(code string, err error) {
	if o.sw == nil { // no byte is out: the failure owns the HTTP status
		writeJSON(o.w, errorStatus(code), wire.FromError(code, err))
		return
	}
	o.sw.Fail(code, err) // a stream is torn by its error trailer, never silently
}

// respond is the one drain behind every successful response: it pulls
// executor batches from next — a live result's Rows.NextChunk, nil for
// a cache hit, whose stored rows finish writes — into the request's
// sink. The cursor *is* the execution, so any execution failure — a
// contained panic, an injected fault, a runtime error, cancellation —
// can surface between batches; it, a cell that fails to encode, a
// failed write and a panic on this goroutine (recovered here, where
// the sink can still answer in the right shape) all go through
// failExec. It reports the outcome: "ok", else the wire code the
// response failed with.
func (s *Server) respond(rq *running, rows *wire.Encoded, next func() (*storage.Chunk, error)) (outcome string) {
	defer func() {
		if rv := recover(); rv != nil {
			outcome = s.failExec(rq, &graphsql.QueryPanicError{Value: rv, Stack: debug.Stack()}, wire.CodePanic)
		}
	}()
	if err := rq.out.header(rows); err != nil {
		return s.failExec(rq, err, wire.CodeCanceled) // client gone before the first frame
	}
	for next != nil {
		c, err := next()
		if err != nil {
			return s.failExec(rq, err, wire.CodeSQL)
		}
		if c == nil {
			break
		}
		// An unencodable cell or an injected stream fault is internal
		// (wire.ErrorCode) and answered; only a failed write — the client
		// is gone, nothing is left to tell it — falls back to canceled.
		if err := rq.out.batch(c); err != nil {
			return s.failExec(rq, err, wire.CodeCanceled)
		}
	}
	if err := rq.out.finish(rq.traced.Tree()); err != nil {
		return s.failExec(rq, err, wire.CodeCanceled)
	}
	return "ok"
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	fail := func(status int, code string, err error) {
		s.errors.Add(1)
		writeJSON(w, status, &wire.PrepareResponse{Error: &wire.Error{Code: code, Message: err.Error()}})
	}
	req, err := wire.DecodeRequest[wire.PrepareRequest](io.LimitReader(r.Body, 16<<20))
	if err != nil {
		fail(http.StatusBadRequest, wire.CodeInvalidRequest, err)
		return
	}
	if req.SQL == "" {
		fail(http.StatusBadRequest, wire.CodeInvalidRequest, errors.New("missing sql"))
		return
	}
	if req.Session == "" {
		fail(http.StatusBadRequest, wire.CodeInvalidRequest, errors.New("prepare requires a session"))
		return
	}
	graphName := req.Graph
	if graphName == "" {
		graphName = s.cfg.DefaultGraph
	}
	db, _, ok := s.reg.Resolve(graphName)
	if !ok {
		fail(http.StatusNotFound, wire.CodeUnknownGraph, fmt.Errorf("graph %q is not loaded", graphName))
		return
	}
	ss := s.session(req.Session)
	info, err := ss.bind(graphName, db).Prepare(req.SQL, req.Args...)
	if err != nil {
		fail(http.StatusUnprocessableEntity, wire.CodeSQL, err)
		return
	}
	id := ss.registerStmt(graphName, req.SQL)
	writeJSON(w, http.StatusOK, &wire.PrepareResponse{StatementID: id, NumParams: info.NumParams})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	req, err := wire.DecodeRequest[wire.ExecuteRequest](io.LimitReader(r.Body, 16<<20))
	if err != nil {
		s.failQuery(w, wire.CodeInvalidRequest, err)
		return
	}
	if req.Session == "" || req.StatementID == "" {
		s.failQuery(w, wire.CodeInvalidRequest, errors.New("execute requires session and statement_id"))
		return
	}
	st, ok := s.session(req.Session).stmt(req.StatementID)
	if !ok {
		s.failQuery(w, wire.CodeInvalidRequest,
			fmt.Errorf("unknown statement id %q (never prepared, or its session was evicted)", req.StatementID))
		return
	}
	s.runQuery(w, r, &wire.QueryRequest{
		Graph: st.graph, Session: req.Session, SQL: st.sql, Args: req.Args,
		Workers: req.Workers, TimeoutMillis: req.TimeoutMillis,
		Stream: req.Stream, BatchRows: req.BatchRows, Trace: req.Trace,
	})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req wire.LoadRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 256<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &wire.LoadResponse{Graph: name, Error: &wire.Error{Code: wire.CodeInvalidRequest, Message: err.Error()}})
		return
	}
	gen, tables, err := s.reg.Load(r.Context(), name, req.Script, req.Indexes)
	if err != nil {
		s.errors.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, &wire.LoadResponse{Graph: name, Error: &wire.Error{Code: wire.CodeSQL, Message: err.Error()}})
		return
	}
	// The new generation can never hit the old entries (the key
	// changed); purging just frees their memory immediately.
	if s.cache != nil {
		s.cache.InvalidateGraph(name)
	}
	s.loads.Add(1)
	writeJSON(w, http.StatusOK, &wire.LoadResponse{Graph: name, Generation: gen, Tables: tables})
}

// StatsResponse is the GET /stats payload.
type StatsResponse struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Queries       uint64            `json:"queries"`
	Errors        uint64            `json:"errors"`
	Canceled      uint64            `json:"canceled"`
	Loads         uint64            `json:"loads"`
	Panics        uint64            `json:"panics_recovered"`
	Sessions      int               `json:"sessions"`
	Admission     AdmissionSnapshot `json:"admission"`
	Cache         *CacheSnapshot    `json:"cache,omitempty"`
	Graphs        []GraphInfo       `json:"graphs"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.sessMu.Lock()
	sessions := len(s.sessions)
	s.sessMu.Unlock()
	resp := &StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Queries:       s.queries.Load(),
		Errors:        s.errors.Load(),
		Canceled:      s.canceled.Load(),
		Loads:         s.loads.Load(),
		Panics:        s.panics.Load(),
		Sessions:      sessions,
		Admission:     s.adm.Snapshot(),
		Graphs:        s.reg.Info(),
	}
	if s.cache != nil {
		cs := s.cache.Snapshot()
		resp.Cache = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}
