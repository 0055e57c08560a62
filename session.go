package graphsql

import (
	"context"
	"sync"

	"graphsql/internal/engine"
	"graphsql/internal/sql/fingerprint"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// Session is a server-friendly handle over a shared DB: it carries
// session-scoped settings (`SET parallelism = n` applies to the session
// only) and a prepared-plan cache keyed by statement text and argument
// kinds, so repeated queries skip parse, bind and rewrite. Sessions are
// cheap; create one per client connection. A Session serializes its own
// statements but runs concurrently with other sessions (SELECTs share
// the DB's read lock).
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
	// resolution (fingerprint, parse/bind on a plan-cache miss) and the
	// per-operator execution tree. Create one with NewTrace. Nil — the
	// default — disables tracing at zero cost.
	Trace *trace.Trace
	// BatchRows bounds the row count of the batches the executor's
	// pipeline operators hand between each other; 0 (or negative) uses
	// the default (1024). Smaller batches lower time-to-first-row and
	// peak intermediate memory at some per-batch overhead. Results are
	// identical at any value.
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
// the locking and Close contract). Session-scoped SETs never touch the
// engine thanks to applySet and stay under the read lock too.
func (s *Session) QueryRows(ctx context.Context, qo QueryOptions, sql string, args ...any) (*Rows, error) {
	params, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.queryRows(ctx, qo, s.parallelism, s.applySet, func(planSpan trace.SpanID) (*engine.Prepared, []types.Value, error) {
		return s.resolvePlan(qo.Trace, planSpan, sql, params)
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
// Query/QueryOpts/QueryRows with the same text (and argument kinds)
// skips parse, bind and rewrite. args supply representative values for
// kind inference when the statement uses ? placeholders; preparing with
// no args and executing with typed ones re-prepares once on first use.
// This is what the gsqld wire-level POST /prepare endpoint rides.
func (s *Session) Prepare(sql string, args ...any) (StmtInfo, error) {
	params, err := bindArgs(args)
	if err != nil {
		return StmtInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	// Re-preparing a cached statement costs no parse at all.
	if p := s.plans[planKey(sql, params)]; p != nil && !p.Stale(s.db.eng, params) {
		return StmtInfo{NumParams: p.NumParams, IsSelect: p.IsSelect()}, nil
	}
	// Without a representative value for every placeholder the plan
	// cannot be bound yet (binding infers types from the argument
	// kinds); report the parse-level metadata and let the first typed
	// execution prepare — and cache — the plan. (A first-time prepare
	// with sufficient args parses twice — describe, then bind — a
	// one-time cost per statement.)
	n, isSel, err := s.db.eng.Describe(sql)
	if err != nil {
		return StmtInfo{}, err
	}
	if len(params) < n {
		return StmtInfo{NumParams: n, IsSelect: isSel}, nil
	}
	p, _, err := s.resolvePlan(nil, trace.NoSpan, sql, params)
	if err != nil {
		return StmtInfo{}, err
	}
	// NumParams reports the placeholders in the statement as written —
	// the wire contract — not the plan's count, which fingerprinting
	// may have raised by turning literals into extra parameters.
	return StmtInfo{NumParams: n, IsSelect: p.IsSelect()}, nil
}

// resolvePlan returns the cached plan of the statement together with
// the parameter values to execute it with, preparing and caching the
// plan if absent or stale. Both s.mu and the DB read lock must be held.
// It records fingerprint and prepare spans (and the plan-cache outcome)
// into tr under parent; a nil tr records nothing.
//
// SELECT statements are fingerprinted first (literals in filter
// positions rewrite to placeholders, their values merging with the
// caller's arguments in statement order), so literal variants of one
// statement shape share a single cached plan. When the statement
// cannot be normalized — or the caller's argument count does not match
// its placeholders — the raw text is used and every error reads
// exactly as it would have without normalization.
func (s *Session) resolvePlan(tr *trace.Trace, parent trace.SpanID, sql string, params []types.Value) (*engine.Prepared, []types.Value, error) {
	db := s.db
	execSQL, execParams := sql, params
	spFp := tr.Begin(parent, "fingerprint")
	norm := fingerprint.Normalize(sql)
	if norm.Changed() {
		if merged, ok := norm.MergeValues(params); ok {
			execSQL, execParams = norm.SQL, merged
		}
	}
	tr.End(spFp)
	key := planKey(execSQL, execParams)
	if p := s.plans[key]; p != nil && !p.Stale(db.eng, execParams) {
		db.planHits.Add(1)
		tr.SetPlanCacheHit(true)
		return p, execParams, nil
	}
	tr.SetPlanCacheHit(false)
	spPrep := tr.Begin(parent, "prepare")
	defer tr.End(spPrep)
	p, err := db.eng.Prepare(execSQL, execParams...)
	if err != nil {
		if execSQL != sql {
			// Normalization is semantics-preserving by construction; if
			// the rewritten statement nonetheless fails to prepare, fall
			// back to the raw text so the caller sees exactly the plan —
			// or the error — it would have seen without normalization.
			p, err = db.eng.Prepare(sql, params...)
			if err != nil {
				return nil, nil, err
			}
			db.planMisses.Add(1)
			s.cachePlanLocked(planKey(sql, params), p)
			return p, params, nil
		}
		return nil, nil, err
	}
	db.planMisses.Add(1)
	s.cachePlanLocked(key, p)
	return p, execParams, nil
}

// cachePlanLocked inserts a cacheable plan, dropping the cache
// wholesale at the size bound; s.mu must be held.
func (s *Session) cachePlanLocked(key string, p *engine.Prepared) {
	if !p.IsSelect() && !p.IsSet() {
		return
	}
	if len(s.plans) >= maxSessionPlans {
		s.plans = make(map[string]*engine.Prepared)
	}
	s.plans[key] = p
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

// planKey builds the session plan-cache key: the statement text plus
// the argument kinds it was bound with (the same text bound with
// differently-typed arguments produces a different plan).
func planKey(sql string, params []types.Value) string {
	if len(params) == 0 {
		return sql
	}
	b := make([]byte, 0, len(sql)+1+len(params))
	b = append(b, sql...)
	b = append(b, 0)
	for _, p := range params {
		b = append(b, byte(p.K))
	}
	return string(b)
}
