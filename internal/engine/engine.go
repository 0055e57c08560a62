// Package engine ties the front-end (lexer, parser, binder), the
// rewriter, and the executor together, mirroring the compiler →
// optimizer → physical layer pipeline of §3. It also implements the
// DDL/DML statements and maintains the graph-index cache of §6.
//
// There is one way to run a statement: Prepare, then
// ExecPreparedCursor, which returns the exec.Cursor every caller
// drains. Every plan — a SELECT, the source of an INSERT … SELECT, the
// statement under EXPLAIN ANALYZE — is opened by openPlan as an
// operator cursor with the context newExecContext builds, so the
// worker budget and trace of ExecOptions apply to all of them alike;
// statements that execute to completion (DDL, DML, EXPLAIN) return a
// one-chunk cursor over what they produced.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"graphsql/internal/analyze"
	"graphsql/internal/core"
	"graphsql/internal/exec"
	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/sql/ast"
	"graphsql/internal/sql/parser"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// Engine executes SQL statements over a catalog.
type Engine struct {
	cat *storage.Catalog
	// graphIndexes caches dynamic graph indexes per edge table; see
	// BuildGraphIndex. Key: exec.GraphIndexKey.
	graphIndexes map[string]*core.DynamicGraph
	// indexTables records, per lower-cased table name, the index keys
	// built on it, for invalidation on writes.
	indexTables map[string][]string
	// parallelism is the worker budget for graph construction and
	// batched shortest-path solving; 0 means one worker per CPU.
	parallelism int
	// defaultParallelism is the value SetParallelism configured; an
	// engine-wide `SET parallelism = DEFAULT` restores it.
	defaultParallelism int
	// schemaVersion counts catalog shape changes (CREATE/DROP TABLE);
	// prepared statements bound against an older version are stale.
	schemaVersion uint64
	// dataVersion counts statements that may have changed query-visible
	// state (CREATE/DROP/INSERT/DELETE), including failed ones that may
	// have partially applied. It is atomic so result caches can key on
	// it without taking the engine's locks; see DataVersion.
	dataVersion atomic.Uint64
}

// New returns an engine over a fresh catalog.
func New() *Engine {
	return &Engine{
		cat:          storage.NewCatalog(),
		graphIndexes: map[string]*core.DynamicGraph{},
		indexTables:  map[string][]string{},
	}
}

// Catalog exposes the underlying catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// SetParallelism sets the worker budget for graph construction and
// batched shortest-path solving: 1 forces sequential execution, n > 1
// caps the workers, and 0 (the default) uses one worker per CPU.
// Results are identical at any setting. Graph indexes built earlier
// keep the budget they were built with.
func (e *Engine) SetParallelism(p int) {
	if p < 0 {
		p = 0
	}
	e.parallelism = p
	e.defaultParallelism = p
}

// Parallelism reports the configured worker budget (0 = one per CPU).
func (e *Engine) Parallelism() int { return e.parallelism }

// DataVersion reports a counter bumped by every statement that may
// change query-visible state (CREATE/DROP/INSERT/DELETE — before it
// runs, so even a partially applied failure moves it). Two executions
// of one SELECT with equal DataVersion observations are guaranteed to
// see the same data; result caches key on it to never serve a result
// across a write. Reading it takes no lock.
func (e *Engine) DataVersion() uint64 { return e.dataVersion.Load() }

// ExecOptions carries per-execution overrides. The zero value is not
// meaningful — use DefaultExecOptions (Parallelism -1 = inherit).
type ExecOptions struct {
	// Parallelism overrides the engine's worker budget for this
	// execution: -1 inherits the engine value, 0 means one worker per
	// CPU, n >= 1 caps the pool.
	Parallelism int
	// OnSet, when non-nil, intercepts SET statements so a session layer
	// can scope settings to itself. It receives the lower-cased setting
	// name and the validated value (Null when SET ... = DEFAULT). When
	// it reports handled, the engine state is left untouched.
	OnSet func(name string, v types.Value) (handled bool, err error)
	// Trace, when non-nil, records this execution's spans: one
	// "execute" stage span with the per-operator tree (rows, wall time,
	// solver frontier levels) nested under it. Nil disables tracing at
	// zero cost.
	Trace *trace.Trace
	// BatchRows bounds the rows per batch operators emit; <= 0 uses
	// exec.DefaultBatchRows.
	BatchRows int
}

// DefaultExecOptions returns options that inherit every engine default.
func DefaultExecOptions() ExecOptions { return ExecOptions{Parallelism: -1} }

// effectiveParallelism resolves the worker budget for one execution.
func (e *Engine) effectiveParallelism(opts *ExecOptions) int {
	if opts != nil && opts.Parallelism >= 0 {
		return opts.Parallelism
	}
	return e.parallelism
}

// Prepared is a parsed — and, for SELECT, bound and rewritten —
// statement, reusable across executions with the same parameter kinds.
// It is the unit of the session plan cache: preparing pays the parse,
// bind and rewrite cost once; ExecPreparedCursor then only runs the
// plan. A Prepared must not be executed concurrently with itself; the
// session layer serializes its own statements.
type Prepared struct {
	// SQL is the statement text the plan was prepared from.
	SQL  string
	stmt ast.Statement
	// plan is the bound+rewritten logical plan (SELECT only).
	plan plan.Node
	// NumParams is how many ? placeholders the statement uses.
	NumParams int
	// paramKinds are the kinds the statement was bound with; executing
	// with differently-typed arguments requires a fresh Prepare.
	paramKinds []types.Kind
	// version is the engine schema version at bind time.
	version uint64
}

// IsSelect reports whether the statement is a query (safe under a read
// lock; everything else mutates engine or catalog state). EXPLAIN
// statements count: they only read (EXPLAIN ANALYZE executes the inner
// SELECT, which is itself read-only).
func (p *Prepared) IsSelect() bool {
	switch p.stmt.(type) {
	case *ast.SelectStmt, *ast.ExplainStmt:
		return true
	}
	return false
}

// IsSet reports whether the statement is a SET. A SET executed with an
// ExecOptions.OnSet interceptor does not mutate the engine and may run
// under a read lock; without one it writes the engine default.
func (p *Prepared) IsSet() bool {
	_, ok := p.stmt.(*ast.SetStmt)
	return ok
}

// Stale reports whether the plan can no longer serve an execution:
// the catalog shape changed since bind time, or the argument kinds
// differ from the ones it was bound with.
func (p *Prepared) Stale(e *Engine, params []types.Value) bool {
	if p.version != e.schemaVersion {
		return true
	}
	if len(params) < len(p.paramKinds) {
		return true
	}
	for i, k := range p.paramKinds {
		if params[i].K != k {
			return true
		}
	}
	return false
}

// Describe parses a statement without binding it: the parameter count
// and statement class are available even before any representative
// argument values exist. The wire-level PREPARE path uses it to defer
// binding until the first typed execution.
func (e *Engine) Describe(sql string) (numParams int, isSelect bool, err error) {
	stmt, nparams, err := parser.ParseWithParams(sql)
	if err != nil {
		return 0, false, err
	}
	switch stmt.(type) {
	case *ast.SelectStmt, *ast.ExplainStmt:
		return nparams, true, nil
	}
	return nparams, false, nil
}

// Prepare parses and, for SELECT statements, binds and rewrites sql.
// params supply the argument kinds referenced during binding; their
// values are not captured (they are re-supplied at execution time).
// A panic during binding or rewrite surfaces as a *QueryPanicError.
func (e *Engine) Prepare(sql string, params ...types.Value) (prep *Prepared, err error) {
	defer recoverExecPanic(&err)
	stmt, nparams, err := parser.ParseWithParams(sql)
	if err != nil {
		return nil, err
	}
	if nparams > len(params) {
		return nil, fmt.Errorf("statement uses %d parameters but %d argument(s) were supplied", nparams, len(params))
	}
	p := &Prepared{SQL: sql, stmt: stmt, NumParams: nparams, version: e.schemaVersion}
	if nparams > 0 {
		p.paramKinds = make([]types.Kind, nparams)
		for i := range p.paramKinds {
			p.paramKinds[i] = params[i].K
		}
	}
	switch t := stmt.(type) {
	case *ast.SelectStmt:
		p.plan, err = e.boundPlan(nil, t, params)
	case *ast.ExplainStmt:
		// Bind the inner SELECT now, so EXPLAIN surfaces bind errors at
		// prepare time exactly like the statement it wraps.
		p.plan, err = e.boundPlan(nil, t.Stmt, params)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ExecPreparedCursor is the one way a statement executes: it runs a
// prepared statement and returns the cursor over its result. A SELECT
// opens its operator tree here, under whatever lock discipline the
// caller holds — base-table scans snapshot and cached graph indexes
// refresh now — and execution then proceeds batch-by-batch as the
// cursor is drained, without the lock. Any other statement executes
// fully here and the cursor serves what it produced (the EXPLAIN text,
// or nothing). The caller is responsible for staleness (see
// Prepared.Stale) — executing a stale plan against a reshaped catalog
// is undefined — and must Close the cursor; exhaustion and errors
// close it implicitly. A panic here — on this goroutine or inside a
// parallel pool worker — surfaces as a *QueryPanicError, never as a
// process-killing unwind; consumers apply the same conversion
// (CapturePanic) to panics raised during the drain.
func (e *Engine) ExecPreparedCursor(ctx context.Context, p *Prepared, opts *ExecOptions, params ...types.Value) (cur *exec.Cursor, err error) {
	defer recoverExecPanic(&err)
	if p.NumParams > len(params) {
		return nil, fmt.Errorf("statement uses %d parameters but %d argument(s) were supplied", p.NumParams, len(params))
	}
	switch t := p.stmt.(type) {
	case *ast.SelectStmt:
		pl, err := e.boundPlan(p.plan, t, params)
		if err != nil {
			return nil, err
		}
		return e.openPlan(ctx, pl, params, opts)
	case *ast.ExplainStmt:
		pl, err := e.boundPlan(p.plan, t.Stmt, params)
		if err != nil {
			return nil, err
		}
		text, err := e.explain(ctx, t, pl, params, opts)
		if err != nil {
			return nil, err
		}
		return exec.NewCursor(ctx, text), nil
	}
	if err := e.execStmt(ctx, p.stmt, params, opts); err != nil {
		return nil, err
	}
	return exec.NewCursor(ctx, nil), nil
}

// boundPlan returns the plan bound at Prepare time, or binds and
// rewrites the statement now (script statements carry no plan).
func (e *Engine) boundPlan(pl plan.Node, sel *ast.SelectStmt, params []types.Value) (plan.Node, error) {
	if pl != nil {
		return pl, nil
	}
	bound, err := analyze.BindSelect(e.cat, sel, params)
	if err != nil {
		return nil, err
	}
	return plan.Rewrite(bound), nil
}

// newExecContext builds the exec context for one execution.
func (e *Engine) newExecContext(ctx context.Context, params []types.Value, opts *ExecOptions) *exec.Context {
	ectx := &exec.Context{
		Ctx:          ctx,
		Expr:         &expr.Context{Params: params},
		GraphIndexes: e.graphIndexes,
		Parallelism:  e.effectiveParallelism(opts),
	}
	if opts != nil {
		ectx.BatchRows = opts.BatchRows
	}
	return ectx
}

// openPlan compiles a bound plan into an operator tree, opens it and
// hands it to a cursor; execution happens as the cursor drains. With a
// trace attached the "execute" stage span opens now and ends via the
// cursor's close hook, so its duration covers the actual execution
// window and the in-flight stage shows "execute" for as long as batches
// flow; every operator records its span under it.
func (e *Engine) openPlan(ctx context.Context, pl plan.Node, params []types.Value, opts *ExecOptions) (*exec.Cursor, error) {
	ectx := e.newExecContext(ctx, params, opts)
	var onClose func()
	if opts != nil && opts.Trace != nil {
		tr := opts.Trace
		sp := tr.Begin(trace.NoSpan, "execute")
		ectx.Trace = tr
		ectx.TraceSpan = sp
		onClose = func() { tr.End(sp) }
	}
	op, err := exec.Build(pl, ectx)
	if err == nil {
		if err = op.Open(ectx); err != nil {
			op.Close()
		}
	}
	if err != nil {
		if onClose != nil {
			onClose()
		}
		return nil, err
	}
	return exec.NewOperatorCursor(ctx, op, onClose), nil
}

// drain runs a cursor to exhaustion and returns the whole result as
// one chunk: empty with the result schema for a query without rows,
// nil for a statement without a result.
func drain(cur *exec.Cursor) (*storage.Chunk, error) {
	defer cur.Close()
	chunk, err := cur.Next(0)
	if err != nil {
		return nil, err
	}
	if chunk == nil && cur.Schema() != nil {
		chunk = storage.NewChunk(cur.Schema())
	}
	return chunk, nil
}

// explain serves EXPLAIN [ANALYZE]: plain EXPLAIN renders the bound
// plan tree; ANALYZE executes the inner SELECT under a private trace
// and renders the operator span tree — actual rows, wall times, worker
// budgets and per-level solver frontier sizes — next to each node's
// Describe line. The result is one "QUERY PLAN" string column, one row
// per output line.
func (e *Engine) explain(ctx context.Context, ex *ast.ExplainStmt, pl plan.Node, params []types.Value, opts *ExecOptions) (*storage.Chunk, error) {
	var text string
	if !ex.Analyze {
		text = plan.Explain(pl)
	} else {
		// A private trace keeps the rendering to this statement's spans
		// even when the caller traces the enclosing request.
		analyzed := DefaultExecOptions()
		if opts != nil {
			analyzed = *opts
		}
		analyzed.Trace = trace.New()
		cur, err := e.openPlan(ctx, pl, params, &analyzed)
		if err != nil {
			return nil, err
		}
		if _, err := drain(cur); err != nil {
			return nil, err
		}
		// The operators sit under the private trace's "execute" stage.
		var b strings.Builder
		for _, stage := range analyzed.Trace.Tree().Children {
			for _, op := range stage.Children {
				b.WriteString(trace.Render(op))
			}
		}
		text = b.String()
	}
	out := storage.NewColumn(types.KindString, 8)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		out.AppendString(line)
	}
	return &storage.Chunk{
		Schema: storage.Schema{{Name: "QUERY PLAN", Kind: types.KindString}},
		Cols:   []*storage.Column{out},
	}, nil
}

// QueryCtx parses, binds, optimizes and executes one statement and
// drains its cursor into one chunk (nil for statements without
// results). The context is checked at operator, batch and solver chunk
// boundaries.
func (e *Engine) QueryCtx(ctx context.Context, sql string, params ...types.Value) (*storage.Chunk, error) {
	p, err := e.Prepare(sql, params...)
	if err != nil {
		return nil, err
	}
	cur, err := e.ExecPreparedCursor(ctx, p, nil, params...)
	if err != nil {
		return nil, err
	}
	return drain(cur)
}

// ExecScript runs a semicolon-separated script statement at a time —
// each statement is parsed, executed and dropped before the next one is
// read — and returns the cursor of the last statement; the statements
// before it are drained. The script stops at the first statement that
// fails to parse or run, or at the next statement boundary once ctx is
// canceled; the statements before it stay applied. A panic in any
// statement surfaces as a *QueryPanicError (the script stops at that
// statement, like any other statement error).
func (e *Engine) ExecScript(ctx context.Context, sql string) (last *exec.Cursor, err error) {
	defer recoverExecPanic(&err)
	script := parser.NewScript(sql)
	last = exec.NewCursor(ctx, nil)
	for {
		stmt, err := script.Next()
		if err != nil {
			last.Close()
			return nil, err
		}
		if stmt == nil {
			return last, nil
		}
		if _, err := drain(last); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		last, err = e.ExecPreparedCursor(ctx, &Prepared{stmt: stmt}, nil)
		if err != nil {
			return nil, err
		}
	}
}

// Explain returns the optimized logical plan of a SELECT statement.
func (e *Engine) Explain(sql string, params ...types.Value) (string, error) {
	stmt, _, err := parser.ParseWithParams(sql)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		return "", fmt.Errorf("EXPLAIN supports only SELECT statements")
	}
	pl, err := e.boundPlan(nil, sel, params)
	if err != nil {
		return "", err
	}
	return plan.Explain(pl), nil
}

// execStmt runs a statement that executes to completion and leaves no
// result: DDL, DML and SET.
func (e *Engine) execStmt(ctx context.Context, stmt ast.Statement, params []types.Value, opts *ExecOptions) error {
	switch t := stmt.(type) {
	case *ast.CreateTableStmt:
		e.dataVersion.Add(1)
		return e.execCreateTable(t)
	case *ast.InsertStmt:
		e.dataVersion.Add(1)
		return e.execInsert(ctx, t, params, opts)
	case *ast.DropTableStmt:
		e.dataVersion.Add(1)
		if err := e.cat.DropTable(t.Name); err != nil {
			return err
		}
		e.invalidateIndexes(t.Name)
		e.schemaVersion++
		return nil
	case *ast.DeleteStmt:
		e.dataVersion.Add(1)
		return e.execDelete(t, params)
	case *ast.SetStmt:
		return e.execSet(t, params, opts)
	}
	return fmt.Errorf("internal: unknown statement %T", stmt)
}

// execSet validates and applies a SET statement. Known settings:
//
//	SET parallelism = n        -- 0 = one worker per CPU, n >= 1 caps
//	SET parallelism = DEFAULT  -- reset to the inherited value
//
// When opts.OnSet is present the setting is offered to it first so a
// session layer can scope it; otherwise it applies engine-wide.
func (e *Engine) execSet(t *ast.SetStmt, params []types.Value, opts *ExecOptions) error {
	name := strings.ToLower(t.Name)
	var v types.Value
	if t.Default {
		v = types.NewNull(types.KindNull)
	} else {
		b := analyze.NewBinder(e.cat, params)
		be, err := b.BindScalar(t.Value)
		if err != nil {
			return err
		}
		v, err = expr.EvalScalar(be, &expr.Context{Params: params})
		if err != nil {
			return err
		}
	}
	switch name {
	case "parallelism":
		n := e.defaultParallelism // DEFAULT restores the configured value
		if !t.Default {
			if v.Null || v.K != types.KindInt || v.I < 0 {
				return fmt.Errorf("SET parallelism requires a non-negative integer (0 = one worker per CPU)")
			}
			n = int(v.I)
		}
		if opts != nil && opts.OnSet != nil {
			handled, err := opts.OnSet(name, v)
			if handled || err != nil {
				return err
			}
		}
		// Engine-wide SET adjusts the active budget without redefining
		// the configured default (so a later DEFAULT restores it).
		e.parallelism = n
		return nil
	}
	return fmt.Errorf("unknown setting %q (supported: parallelism)", t.Name)
}

func (e *Engine) execCreateTable(t *ast.CreateTableStmt) error {
	sch := make(storage.Schema, len(t.Columns))
	for i, c := range t.Columns {
		k, err := analyze.TypeNameKind(c.TypeName)
		if err != nil {
			return fmt.Errorf("column %s: %w", c.Name, err)
		}
		sch[i] = storage.ColMeta{Name: c.Name, Kind: k}
	}
	if _, err := e.cat.CreateTable(t.Name, sch); err != nil {
		return err
	}
	e.schemaVersion++
	return nil
}

func (e *Engine) execInsert(ctx context.Context, t *ast.InsertStmt, params []types.Value, opts *ExecOptions) error {
	table, ok := e.cat.Table(t.Table)
	if !ok {
		return fmt.Errorf("table %q does not exist", t.Table)
	}
	// Map the targeted columns.
	colIdx := make([]int, 0, len(table.Schema))
	if len(t.Columns) == 0 {
		for i := range table.Schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, cn := range t.Columns {
			idx := table.Schema.ColIndex("", cn)
			if idx < 0 {
				return fmt.Errorf("table %s has no column %q", table.Name, cn)
			}
			colIdx = append(colIdx, idx)
		}
	}
	// Appended rows are absorbed by dynamic graph indexes at the next
	// query (DynamicGraph.Refresh); no invalidation needed here.
	appendRow := func(vals []types.Value) error {
		if len(vals) != len(colIdx) {
			return fmt.Errorf("INSERT row has %d values, expected %d", len(vals), len(colIdx))
		}
		row := make([]types.Value, len(table.Schema))
		for i := range row {
			row[i] = types.NewNull(table.Schema[i].Kind)
		}
		for i, v := range vals {
			target := table.Schema[colIdx[i]].Kind
			cv, err := expr.CastValue(v, target)
			if err != nil {
				return fmt.Errorf("column %s: %w", table.Schema[colIdx[i]].Name, err)
			}
			row[colIdx[i]] = cv
		}
		return table.AppendRow(row)
	}

	if t.Select != nil {
		p, err := analyze.BindSelect(e.cat, t.Select, params)
		if err != nil {
			return err
		}
		cur, err := e.openPlan(ctx, plan.Rewrite(p), params, opts)
		if err != nil {
			return err
		}
		// Drained whole before the first append: the source may read the
		// target table.
		res, err := drain(cur)
		if err != nil {
			return err
		}
		if res.NumCols() != len(colIdx) {
			return fmt.Errorf("INSERT SELECT produces %d columns, expected %d", res.NumCols(), len(colIdx))
		}
		for i := 0; i < res.NumRows(); i++ {
			if err := appendRow(res.Row(i)); err != nil {
				return err
			}
		}
		return nil
	}
	b := analyze.NewBinder(e.cat, params)
	ectx := &expr.Context{Params: params}
	for _, rowExprs := range t.Rows {
		vals := make([]types.Value, len(rowExprs))
		for i, re := range rowExprs {
			be, err := b.BindScalar(re)
			if err != nil {
				return err
			}
			v, err := expr.EvalScalar(be, ectx)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := appendRow(vals); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) execDelete(t *ast.DeleteStmt, params []types.Value) error {
	table, ok := e.cat.Table(t.Table)
	if !ok {
		return fmt.Errorf("table %q does not exist", t.Table)
	}
	defer e.invalidateIndexes(t.Table)
	if t.Where == nil {
		// Truncate.
		for i, m := range table.Schema {
			table.Cols[i] = storage.NewColumn(m.Kind, 0)
		}
		return nil
	}
	b := analyze.NewBinder(e.cat, params)
	pred, err := b.BindOver(t.Where, table.Schema)
	if err != nil {
		return err
	}
	chunk := table.Chunk()
	pc, err := pred.Eval(&expr.Context{Params: params}, chunk)
	if err != nil {
		return err
	}
	var keep []int
	for i := 0; i < chunk.NumRows(); i++ {
		if pc.IsNull(i) || pc.Ints[i] == 0 {
			keep = append(keep, i)
		}
	}
	kept := chunk.Gather(keep, 1)
	copy(table.Cols, kept.Cols)
	return nil
}

// BuildGraphIndex materializes and caches the graph (dictionary + CSR)
// of an edge table, the graph index the paper proposes as future work
// (§6). src and dst name the key columns. Subsequent REACHES queries
// over exactly this table and attribute pair reuse the index instead
// of rebuilding the graph. The index is *updatable*: rows inserted
// after the build are absorbed into a delta at the next query, and the
// snapshot is rebuilt automatically once the delta outgrows it;
// DELETE and DROP invalidate the index entirely. A panic during the
// parallel build surfaces as a *QueryPanicError.
func (e *Engine) BuildGraphIndex(table, src, dst string) (err error) {
	defer recoverExecPanic(&err)
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("table %q does not exist", table)
	}
	srcIdx := t.Schema.ColIndex("", src)
	if srcIdx < 0 {
		return fmt.Errorf("table %s has no column %q", table, src)
	}
	dstIdx := t.Schema.ColIndex("", dst)
	if dstIdx < 0 {
		return fmt.Errorf("table %s has no column %q", table, dst)
	}
	dg, err := core.NewDynamicGraphP(t.Chunk(), srcIdx, dstIdx, e.parallelism)
	if err != nil {
		return err
	}
	key := exec.GraphIndexKey(t.Name, srcIdx, dstIdx)
	e.graphIndexes[key] = dg
	lower := strings.ToLower(t.Name)
	e.indexTables[lower] = append(e.indexTables[lower], key)
	return nil
}

// DropGraphIndexes removes all cached graph indexes of a table.
func (e *Engine) DropGraphIndexes(table string) {
	e.invalidateIndexes(table)
}

func (e *Engine) invalidateIndexes(table string) {
	lower := strings.ToLower(table)
	for _, key := range e.indexTables[lower] {
		delete(e.graphIndexes, key)
	}
	delete(e.indexTables, lower)
}
