// Package graphsql is an embedded, in-memory columnar SQL engine with
// the graph extension of De Leo & Boncz, "Extending SQL for Computing
// Shortest Paths" (GRADES'17): the REACHES reachability predicate, the
// CHEAPEST SUM shortest-path summary function, nested-table paths and
// UNNEST.
//
// Quick start:
//
//	db := graphsql.Open()
//	db.MustExec(`CREATE TABLE friends (src BIGINT, dst BIGINT, weight DOUBLE)`)
//	db.MustExec(`INSERT INTO friends VALUES (1, 2, 0.5), (2, 3, 2.0)`)
//	res, err := db.Query(
//	    `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)`,
//	    1, 3)
//
// The dialect supports standard SELECT blocks (joins, WITH CTEs, GROUP
// BY/HAVING, ORDER BY/LIMIT, set operations, derived tables), CREATE
// TABLE / INSERT / DELETE / DROP, and positional ? host parameters.
//
// # Parallelism
//
// Query execution is multi-core end to end. The shortest-path runtime
// drains batched per-source traversals over a worker pool and builds
// the graph (dictionary encoding, CSR) chunked across workers; each
// relational breaker around it has one core that spends the same
// budget — hash joins partition build and probe, GROUP BY
// pre-aggregates per row partition (or accumulates per group when
// exact float/DISTINCT ordering demands it), ORDER BY runs a stable
// parallel merge sort, and DISTINCT and set operations shard rows by
// hash key — and result materialization (row gather, cost columns,
// nested-table paths) is partitioned the same way. The default budget
// is one worker per CPU; WithParallelism overrides it:
//
//	db := graphsql.Open(graphsql.WithParallelism(4)) // cap at 4 workers
//	db := graphsql.Open(graphsql.WithParallelism(1)) // force sequential
//
// Results are bit-identical at every setting — parallel execution only
// partitions independent work (per-source traversals, edge chunks, row
// ranges, key shards) over disjoint outputs merged in a fixed order,
// and never reorders the computation inside one unit. A differential
// test harness and a row-at-a-time relational oracle hold every
// operator to that guarantee. Below a size gate the same cores run on
// one worker as plain loops, so point queries pay no goroutine
// overhead.
//
// # Serving
//
// For service workloads, SELECTs run concurrently under a read lock
// while writes serialize, QueryCtx threads a context.Context through
// execution — checked at operator boundaries, between per-source
// traversals of a batched solve, and inside a single traversal (BFS
// and Dijkstra poll every 4096 queue pops), so even a single-source
// query over a huge graph aborts within milliseconds of cancellation —
// and Session handles add session-scoped settings (SET parallelism)
// plus a prepared parse+plan cache:
//
//	s := db.Session()
//	s.Query(ctx, `SET parallelism = 2`)          // this session only
//	res, err := s.Query(ctx, `SELECT ...`, args) // cached plan on repeat
//
// There is one way to run a statement: QueryRows (ctx first, a
// QueryOptions struct, returning a *Rows cursor) on a DB or a Session —
// the two share one body and differ only in how the plan is resolved —
// and "buffered" means draining that cursor: Query, QueryCtx,
// QueryScalar, ExecScript and the Session variants are thin wrappers
// around Rows.Result. A SELECT opens its operator tree under the read
// lock (base tables snapshot, cached graph indexes refresh) and then
// executes batch-by-batch as the cursor is drained — lock-free, so the
// first rows of a large result are available while the query is still
// running and a slow consumer never blocks writers. There is one
// executor and no switch that selects another; see the README's
// "Executor" section. DataVersion exposes a write counter that result
// caches key on so a cached SELECT is never served across a write.
//
// cmd/gsqld exposes all of this over HTTP — a multi-graph registry
// with copy-on-swap reloads, an admission-control scheduler, a
// result-set cache, chunked streaming responses, wire-level prepared
// statements and Prometheus metrics — via the structured encoding of
// internal/wire; see the README's "Running as a server" and
// "Production serving".
package graphsql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphsql/internal/engine"
	"graphsql/internal/exec"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// DB is an embedded in-memory database. It is safe for concurrent use:
// SELECT statements run concurrently under a read lock, while DDL/DML
// (and engine-wide SET) serialize under the write lock. Long-running
// services should prefer Session handles, which add per-session
// settings and a prepared-plan cache on top.
type DB struct {
	mu  sync.RWMutex
	eng *engine.Engine

	// planHits/planMisses aggregate session plan-cache traffic across
	// every Session of this DB (a hit skips parse, bind and rewrite).
	planHits   atomic.Uint64
	planMisses atomic.Uint64
}

// PlanCacheStats reports the cumulative session plan-cache hits and
// misses across all sessions of the DB. Statement fingerprinting
// (internal/sql/fingerprint) normalizes literal variants to one cached
// plan, so replayed point lookups with changing literals count as hits.
func (db *DB) PlanCacheStats() (hits, misses uint64) {
	return db.planHits.Load(), db.planMisses.Load()
}

// QueryPanicError is the error a statement returns when its execution
// panicked — on the calling goroutine or inside a parallel worker. The
// engine converts the panic at its boundary (value + worker stack
// preserved), so callers observe it as an ordinary error on the normal
// return path; the facade's locks are released by the usual defers and
// the DB stays usable. Containment, not rollback: a panicking write
// may be partially applied, exactly like a write that fails with a
// regular error. Match with errors.As.
type QueryPanicError = engine.QueryPanicError

// Option configures a DB at Open time.
type Option func(*DB)

// WithParallelism caps the worker count of the shortest-path runtime:
// 1 forces sequential execution, n > 1 caps the pool, 0 (the default)
// uses one worker per CPU. Query results are identical at any setting.
func WithParallelism(n int) Option {
	return func(db *DB) { db.eng.SetParallelism(n) }
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	db := &DB{eng: engine.New()}
	for _, o := range opts {
		o(db)
	}
	return db
}

// Path is the client-side representation of a nested-table shortest
// path: the edge-table columns and one row per traversed edge, in
// order from source to destination.
type Path struct {
	Columns []string
	Rows    [][]any
}

// Len returns the number of edges in the path.
func (p *Path) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Rows)
}

// String renders the path compactly.
func (p *Path) String() string {
	if p == nil || len(p.Rows) == 0 {
		return "[]"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, r := range p.Rows {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(formatCell(v))
		}
		b.WriteByte(')')
	}
	b.WriteByte(']')
	return b.String()
}

// Result is a fully materialized query result.
type Result struct {
	// Columns holds the output column names.
	Columns []string
	// Rows holds the data; cells are int64, float64, string, bool,
	// time.Time (DATE), *Path (nested tables) or nil (NULL).
	Rows [][]any
}

// Len returns the row count.
func (r *Result) Len() int { return len(r.Rows) }

// String renders the result as an aligned text table.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	cells := make([][]string, len(r.Rows))
	for j, c := range r.Columns {
		widths[j] = len(c)
	}
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := formatCell(v)
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for j, s := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(s)
			b.WriteString(strings.Repeat(" ", widths[j]-len(s)))
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for j := range r.Columns {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[j]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

func formatCell(v any) string {
	switch t := v.(type) {
	case nil:
		return "NULL"
	case time.Time:
		return t.Format("2006-01-02")
	case *Path:
		return t.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Exec runs a statement that returns no rows (DDL/DML, or a query
// whose result is discarded).
func (db *DB) Exec(sql string, args ...any) error {
	_, err := db.Query(sql, args...)
	return err
}

// MustExec is Exec that panics on error; intended for tests, examples
// and setup code.
func (db *DB) MustExec(sql string, args ...any) {
	if err := db.Exec(sql, args...); err != nil {
		panic(err)
	}
}

// Query runs a statement and returns its result (nil Rows for DDL).
// Supported argument types: int, int32, int64, float32, float64,
// string, bool, time.Time (bound as DATE), and nil.
func (db *DB) Query(sql string, args ...any) (*Result, error) {
	//gsqlvet:allow ctxprop non-ctx compat wrapper; cancellable callers use QueryCtx
	return db.QueryCtx(context.Background(), sql, args...)
}

// QueryCtx is Query with a cancellation context: when ctx is canceled
// (client disconnect, timeout) execution stops at the next operator
// boundary, batch boundary, source-group boundary, or in-traversal
// poll (every 4096 queue pops) and returns the context's error. SELECT
// statements run under the read lock — concurrent with each other —
// while everything else takes the write lock. It is QueryRows drained
// into a Result.
func (db *DB) QueryCtx(ctx context.Context, sql string, args ...any) (*Result, error) {
	rows, err := db.QueryRows(ctx, QueryOptions{}, sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.Result()
}

// Rows is an incrementally consumable query result: the client side of
// the engine's row-batch cursor seam (internal/exec.Cursor) and what
// every gsqld response — one JSON body or NDJSON frames — is drained
// from. A SELECT executes batch by batch *as Rows is drained* — the
// first batch of a 100k-row result is available before the query
// finishes, and the full row-major copy never exists in memory at
// once. NextBatch polls the query's context, keeping the cursor under
// the same cancellation contract as execution, and converts any panic
// raised by in-drain operator code into a *QueryPanicError, the same
// containment the engine boundary applies. Callers that may abandon a
// result early must Close it to release the operator tree; a fully
// drained or failed Rows closes itself. Not safe for concurrent use.
type Rows struct {
	// Columns holds the output column names.
	Columns []string
	cur     *exec.Cursor
}

func newRows(cur *exec.Cursor) *Rows {
	r := &Rows{cur: cur}
	for _, m := range cur.Schema() {
		r.Columns = append(r.Columns, m.Name)
	}
	return r
}

// Len returns the total row count of the result, or -1 while it is
// still unknown: a statement is executed as its Rows is drained, so the
// total only becomes known at exhaustion.
func (r *Rows) Len() int { return r.cur.NumRows() }

// NextBatch returns the next batch of up to maxRows rows (maxRows <= 0
// means all remaining rows), or (nil, nil) once the result is
// exhausted. Cells use the same representations as Result.Rows.
func (r *Rows) NextBatch(maxRows int) (rows [][]any, err error) {
	// Operator code runs during the drain — after the engine's own
	// panic guard returned — so the containment contract is re-applied
	// here. The guard closes the cursor on the way out;
	// ordinary errors already closed it (they are sticky in the cursor).
	defer func() {
		if err != nil {
			r.cur.Close()
		}
	}()
	defer engine.CapturePanic(&err)
	win, err := r.cur.Next(maxRows)
	if err != nil || win == nil {
		return nil, err
	}
	out := make([][]any, win.NumRows())
	for i := range out {
		row := make([]any, len(win.Cols))
		for j, col := range win.Cols {
			row[j] = fromValue(col.Get(i))
		}
		out[i] = row
	}
	return out, nil
}

// Close releases the result's operator tree. It is idempotent and safe
// after exhaustion (which closes implicitly); callers that may abandon
// a Rows before draining it must call it — typically via defer.
func (r *Rows) Close() error { return r.cur.Close() }

// Result drains the remaining rows into a fully materialized Result
// and closes the cursor. Draining from the start reproduces exactly
// what QueryCtx would have returned.
func (r *Rows) Result() (*Result, error) {
	res := &Result{Columns: append([]string(nil), r.Columns...)}
	for {
		batch, err := r.NextBatch(0)
		if err != nil {
			r.Close()
			return nil, err
		}
		if batch == nil {
			break
		}
		res.Rows = append(res.Rows, batch...)
	}
	r.Close()
	return res, nil
}

// QueryRows is the core query entry point every other query method
// wraps: ctx-first, per-statement options, returning an incremental
// Rows cursor. For SELECT statements the operator tree is opened under
// the read lock — base-table scans snapshot and cached graph indexes
// refresh there — and the lock is released before returning; execution
// then proceeds batch by batch as the cursor is drained, so a slow
// consumer never blocks writers and the first rows arrive before the
// query completes. Non-SELECT statements execute to completion under
// the write lock and return a cursor over what they produced. The
// caller should Close the Rows unless it drains it to exhaustion.
func (db *DB) QueryRows(ctx context.Context, qo QueryOptions, sql string, args ...any) (*Rows, error) {
	params, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	return db.queryRows(ctx, qo, -1, nil, func(trace.SpanID) (*engine.Prepared, []types.Value, error) {
		p, err := db.eng.Prepare(sql, params...)
		return p, params, err
	})
}

// queryRows is the one body behind DB.QueryRows and Session.QueryRows;
// the two differ only in the inherited worker budget, the SET
// interceptor and how resolve obtains the plan (and the parameters to
// run it with). resolve runs under the read lock, inside the "plan"
// stage span it receives as the parent of its own spans. A statement
// that only reads — SELECT, EXPLAIN, and a SET the interceptor scopes
// to its session — then executes under that read lock; anything else
// trades it for the write lock first. Writes carry no bound plan, so
// the engine binds them there against the current catalog — no second
// parse.
func (db *DB) queryRows(ctx context.Context, qo QueryOptions, inherit int,
	onSet func(name string, v types.Value) (bool, error),
	resolve func(planSpan trace.SpanID) (*engine.Prepared, []types.Value, error)) (*Rows, error) {
	opts := &engine.ExecOptions{
		Parallelism: inherit,
		OnSet:       onSet,
		Trace:       qo.Trace,
		BatchRows:   qo.BatchRows,
	}
	if qo.Workers > 0 {
		opts.Parallelism = qo.Workers
	}
	db.mu.RLock()
	spPlan := qo.Trace.Begin(trace.NoSpan, "plan")
	p, params, err := resolve(spPlan)
	qo.Trace.End(spPlan)
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	if p.IsSelect() || (p.IsSet() && onSet != nil) {
		defer db.mu.RUnlock()
	} else {
		db.mu.RUnlock()
		db.mu.Lock()
		defer db.mu.Unlock()
	}
	cur, err := db.eng.ExecPreparedCursor(ctx, p, opts, params...)
	if err != nil {
		return nil, err
	}
	return newRows(cur), nil
}

// DataVersion reports a counter bumped by every statement that may
// change query-visible data (CREATE/DROP/INSERT/DELETE). Two SELECT
// executions bracketed by equal DataVersion observations saw the same
// data; the gsqld result cache keys on it (plus the registry
// generation) so a cached result is never served across a write.
// Reading it takes no lock.
func (db *DB) DataVersion() uint64 { return db.eng.DataVersion() }

// QueryScalar runs a query expected to produce exactly one row and one
// column and returns the single cell.
func (db *DB) QueryScalar(sql string, args ...any) (any, error) {
	res, err := db.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 1 || len(res.Columns) != 1 {
		return nil, fmt.Errorf("expected a single scalar, got %d row(s) × %d column(s)", len(res.Rows), len(res.Columns))
	}
	return res.Rows[0][0], nil
}

// ExecScript runs a semicolon-separated script under the write lock
// and returns the result of the last statement. The script runs
// statement at a time: each statement is parsed, executed and dropped
// before the next one is read, so a script of any size holds one
// statement's tokens and AST at a time. It stops at the first
// statement that fails to parse (a syntax error reported at its
// position in the script) or to run, or at the next statement boundary
// once ctx is canceled; the statements before that one stay applied.
func (db *DB) ExecScript(ctx context.Context, sql string) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur, err := db.eng.ExecScript(ctx, sql)
	if err != nil {
		return nil, err
	}
	return newRows(cur).Result()
}

// Trace is a per-query span recorder: attach one to
// QueryOptions.Trace and the session records plan resolution, the
// per-operator execution tree (rows, wall times, worker budgets) and
// the solver's per-level BFS frontier sizes into it. Read it back with
// Tree (a JSON-marshalable span tree) or render it with RenderTrace.
// All methods are safe on a nil *Trace, which disables tracing.
type Trace = trace.Trace

// TraceNode is one node of a snapshot span tree (Trace.Tree).
type TraceNode = trace.Node

// NewTrace returns an enabled trace whose clock starts now.
func NewTrace() *Trace { return trace.New() }

// RenderTrace pretty-prints a span tree as an indented text block, the
// same rendering EXPLAIN ANALYZE uses.
func RenderTrace(n *TraceNode) string { return trace.Render(n) }

// Explain returns the optimized logical plan of a SELECT.
func (db *DB) Explain(sql string, args ...any) (string, error) {
	params, err := bindArgs(args)
	if err != nil {
		return "", err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.eng.Explain(sql, params...)
}

// BuildGraphIndex precomputes and caches the graph (vertex dictionary
// + CSR) of an edge table over the given source/destination columns —
// the 'graph index' of the paper's §6. REACHES queries over that exact
// table and column pair then skip graph construction. Writes to the
// table invalidate the index.
func (db *DB) BuildGraphIndex(table, src, dst string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.BuildGraphIndex(table, src, dst)
}

// DropGraphIndexes discards all cached graph indexes of a table.
func (db *DB) DropGraphIndexes(table string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.eng.DropGraphIndexes(table)
}

// Engine exposes the underlying engine for advanced embedding
// (benchmark harnesses, instrumentation). Most callers never need it.
func (db *DB) Engine() *engine.Engine { return db.eng }

// TableStats reports the table count and total row count under the
// read lock; used by monitoring endpoints that must not race writers.
func (db *DB) TableStats() (tables, rows int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cat := db.eng.Catalog()
	for _, tn := range cat.TableNames() {
		if t, ok := cat.Table(tn); ok {
			tables++
			rows += t.NumRows()
		}
	}
	return tables, rows
}

// bindArgs converts Go values into engine parameter values.
func bindArgs(args []any) ([]types.Value, error) {
	out := make([]types.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

func toValue(a any) (types.Value, error) {
	switch t := a.(type) {
	case nil:
		return types.NewNull(types.KindNull), nil
	case int:
		return types.NewInt(int64(t)), nil
	case int32:
		return types.NewInt(int64(t)), nil
	case int64:
		return types.NewInt(t), nil
	case float32:
		return types.NewFloat(float64(t)), nil
	case float64:
		return types.NewFloat(t), nil
	case string:
		return types.NewString(t), nil
	case bool:
		return types.NewBool(t), nil
	case time.Time:
		return types.NewDate(t.Unix() / 86400), nil
	}
	return types.Value{}, fmt.Errorf("unsupported argument type %T", a)
}

func fromValue(v types.Value) any {
	if v.Null {
		return nil
	}
	switch v.K {
	case types.KindBool:
		return v.I != 0
	case types.KindInt:
		return v.I
	case types.KindFloat:
		return v.F
	case types.KindString:
		return v.S
	case types.KindDate:
		return time.Unix(v.I*86400, 0).UTC()
	case types.KindPath:
		return pathToClient(v.P)
	}
	return nil
}

func pathToClient(p *types.Path) *Path {
	out := &Path{Columns: append([]string(nil), p.Cols...)}
	for _, r := range p.Rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = fromValue(v)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}
