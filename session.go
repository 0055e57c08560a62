package graphsql

import (
	"context"
	"sync"

	"graphsql/internal/engine"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// Session is a server-friendly handle over a shared DB: it carries
// session-scoped settings (`SET parallelism = n` applies to the session
// only) and a prepared-plan cache keyed by each statement's Stmt — its
// fingerprint-normalized text and argument kinds — so repeated queries,
// and literal variants of one statement shape, skip parse, bind and
// rewrite. Sessions are cheap; create one per client connection. A
// Session serializes its own statements but runs concurrently with
// other sessions (SELECTs share the DB's read lock).
type Session struct {
	db *DB

	mu sync.Mutex
	// parallelism is the session worker budget: -1 inherits the DB
	// value, 0 means one worker per CPU, n >= 1 caps the pool.
	parallelism int
	plans       map[string]*engine.Prepared
}

// maxSessionPlans bounds the prepared-plan cache; when full, the cache
// is dropped wholesale (a session replaying a bounded statement set —
// the common case — never hits this).
const maxSessionPlans = 256

// Session creates a new session over the database.
func (db *DB) Session() *Session {
	return &Session{db: db, parallelism: -1, plans: make(map[string]*engine.Prepared)}
}

// Parallelism reports the session's worker-budget setting: -1 when the
// session inherits the DB value, otherwise the value of the last
// `SET parallelism`.
func (s *Session) Parallelism() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parallelism
}

// QueryOptions carries per-statement overrides of a query; the zero
// value inherits every default. It is shared by the DB-level core
// (DB.QueryRows) and the session variants.
type QueryOptions struct {
	// Workers caps the worker budget of this statement only; it beats
	// the session's SET parallelism, which beats the DB default. 0 (or
	// negative) inherits.
	Workers int
	// Trace, when non-nil, records the statement's spans: plan
	// resolution (parse/bind on a plan-cache miss) and the per-operator
	// execution tree. Create one with NewTrace. Nil — the default —
	// disables tracing at zero cost.
	Trace *trace.Trace
	// BatchRows bounds the row count of the batches the executor's
	// pipeline operators hand between each other; 0 (or negative) uses
	// the default (1024). Smaller batches lower time-to-first-row and
	// peak intermediate memory at some per-batch overhead. A statement
	// that succeeds returns the same rows at any value; for one that
	// fails, the batch boundaries decide which error it reports, and
	// whether a LIMIT fills up before the failing row.
	BatchRows int
}

// Query runs one statement in the session. SET statements update the
// session's settings; everything else behaves like DB.QueryCtx with the
// session's settings applied.
func (s *Session) Query(ctx context.Context, sql string, args ...any) (*Result, error) {
	return s.QueryOpts(ctx, QueryOptions{}, sql, args...)
}

// QueryOpts is Query with per-statement overrides: QueryRows drained
// into a Result.
func (s *Session) QueryOpts(ctx context.Context, qo QueryOptions, sql string, args ...any) (*Result, error) {
	rows, err := s.QueryRows(ctx, qo, sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.Result()
}

// QueryRows is the session's core query entry point: DB.QueryRows with
// the session's settings and prepared-plan cache applied (see there for
// the locking and Close contract). It is NewStmt plus QueryStmt.
func (s *Session) QueryRows(ctx context.Context, qo QueryOptions, sql string, args ...any) (*Rows, error) {
	st, err := NewStmt(sql, args...)
	if err != nil {
		return nil, err
	}
	return s.QueryStmt(ctx, qo, st)
}

// QueryStmt runs a statement whose identity the caller already built —
// a server that keys its result cache on the Stmt runs the same Stmt
// here, so nothing is normalized or converted twice. Session-scoped
// SETs never touch the engine thanks to applySet and stay under the
// read lock too.
func (s *Session) QueryStmt(ctx context.Context, qo QueryOptions, st *Stmt) (*Rows, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.queryRows(ctx, qo, s.parallelism, s.applySet, func(planSpan trace.SpanID) (*engine.Prepared, []types.Value, error) {
		return s.resolvePlan(qo.Trace, planSpan, st)
	})
}

// StmtInfo describes a prepared statement; see Session.Prepare.
type StmtInfo struct {
	// NumParams is how many ? placeholders the statement uses.
	NumParams int
	// IsSelect reports whether the statement is a query.
	IsSelect bool
}

// Prepare parses — and, for SELECT, binds and rewrites — a statement
// into the session's plan cache ahead of execution, so the first
// Query/QueryOpts/QueryRows with the same statement and argument kinds
// skips parse, bind and rewrite. It resolves the plan exactly as
// execution does, so re-preparing a cached statement is a plan-cache
// hit that parses nothing. args supply representative values for kind
// inference when the statement uses ? placeholders; with fewer args
// than placeholders the statement is only parsed — binding infers
// types from the argument kinds — and the first typed execution
// prepares and caches the plan. This is what the gsqld wire-level POST
// /prepare endpoint rides.
func (s *Session) Prepare(sql string, args ...any) (StmtInfo, error) {
	st, err := NewStmt(sql, args...)
	if err != nil {
		return StmtInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	p, _, err := s.resolvePlan(nil, trace.NoSpan, st)
	if err != nil {
		return StmtInfo{}, err
	}
	// NumParams reports the placeholders in the statement as written —
	// the wire contract — not a normalized plan's count, which also
	// counts the literals fingerprinting turned into parameters.
	n := p.NumParams
	if p.SQL != sql {
		n = st.norm.NumRawParams()
	}
	return StmtInfo{NumParams: n, IsSelect: p.IsSelect()}, nil
}

// resolvePlan returns the cached plan of the statement together with
// the parameter values to execute it with, preparing and caching the
// plan if absent or stale. Both s.mu and the DB read lock must be held.
// It records the prepare span (and the plan-cache outcome) into tr
// under parent; a nil tr records nothing.
//
// The plan cache is keyed by the Stmt: the text it executes — the
// fingerprint-normalized text when normalization applies, so literal
// variants of one statement shape share a single cached plan — and the
// argument kinds it binds with.
func (s *Session) resolvePlan(tr *trace.Trace, parent trace.SpanID, st *Stmt) (*engine.Prepared, []types.Value, error) {
	db := s.db
	// Built in a stack buffer, the key costs a hit no allocation.
	var buf [256]byte
	key := st.appendKey(buf[:0], false)
	if p := s.plans[string(key)]; p != nil && !p.Stale(db.eng, st.execParams) {
		db.planHits.Add(1)
		tr.SetPlanCacheHit(true)
		return p, st.execParams, nil
	}
	tr.SetPlanCacheHit(false)
	spPrep := tr.Begin(parent, "prepare")
	defer tr.End(spPrep)
	p, err := db.eng.Prepare(st.execSQL, st.execParams...)
	if err == nil {
		db.planMisses.Add(1)
		// A statement given fewer arguments than placeholders comes back
		// parsed but unbound; the first typed execution binds and caches
		// it.
		if (p.IsSelect() || p.IsSet()) && len(st.execParams) >= p.NumParams {
			if len(s.plans) >= maxSessionPlans {
				s.plans = make(map[string]*engine.Prepared)
			}
			s.plans[string(key)] = p
		}
		return p, st.execParams, nil
	}
	if st.execSQL == st.sql {
		return nil, nil, err
	}
	// Normalization is semantics-preserving by construction; if the
	// rewritten statement nonetheless fails to prepare, fall back to the
	// raw text so the caller sees exactly the plan — or the error — it
	// would have seen without normalization. The fallback plan runs with
	// the raw arguments, so it is not cached under the Stmt's key.
	p, err = db.eng.Prepare(st.sql, st.params...)
	if err != nil {
		return nil, nil, err
	}
	db.planMisses.Add(1)
	return p, st.params, nil
}

// applySet scopes SET statements to the session; called by the engine
// with the session mutex already held (QueryRows holds it).
func (s *Session) applySet(name string, v types.Value) (bool, error) {
	switch name {
	case "parallelism":
		if v.Null {
			s.parallelism = -1 // back to inheriting the DB value
		} else {
			s.parallelism = int(v.I)
		}
		return true, nil
	}
	return false, nil
}
