package graphsql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func sessionTestDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT, w BIGINT)`)
	db.MustExec(`INSERT INTO e VALUES (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 20)`)
	return db
}

func TestSessionSetParallelismScoped(t *testing.T) {
	db := sessionTestDB(t)
	ctx := context.Background()
	s1, s2 := db.Session(), db.Session()

	if _, err := s1.Query(ctx, `SET parallelism = 2`); err != nil {
		t.Fatal(err)
	}
	if got := s1.Parallelism(); got != 2 {
		t.Fatalf("s1 parallelism = %d, want 2", got)
	}
	if got := s2.Parallelism(); got != -1 {
		t.Fatalf("s2 parallelism leaked: %d, want -1", got)
	}
	if got := db.Engine().Parallelism(); got != 0 {
		t.Fatalf("engine parallelism mutated by session SET: %d", got)
	}
	if _, err := s1.Query(ctx, `SET parallelism = DEFAULT`); err != nil {
		t.Fatal(err)
	}
	if got := s1.Parallelism(); got != -1 {
		t.Fatalf("DEFAULT did not reset: %d", got)
	}

	// Engine-wide SET through the plain DB API.
	if err := db.Exec(`SET parallelism = 3`); err != nil {
		t.Fatal(err)
	}
	if got := db.Engine().Parallelism(); got != 3 {
		t.Fatalf("engine parallelism = %d, want 3", got)
	}

	// Engine-wide DEFAULT restores the configured Open value, not 0.
	db2 := Open(WithParallelism(1))
	db2.MustExec(`SET parallelism = 8`)
	if got := db2.Engine().Parallelism(); got != 8 {
		t.Fatalf("engine parallelism = %d, want 8", got)
	}
	db2.MustExec(`SET parallelism = DEFAULT`)
	if got := db2.Engine().Parallelism(); got != 1 {
		t.Fatalf("DEFAULT restored %d, want the configured 1", got)
	}
	// Validation.
	if err := db.Exec(`SET parallelism = -1`); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if err := db.Exec(`SET nonsense = 1`); err == nil || !strings.Contains(err.Error(), "unknown setting") {
		t.Fatalf("unknown setting: %v", err)
	}
}

func TestSessionResultsMatchDB(t *testing.T) {
	db := sessionTestDB(t)
	s := db.Session()
	ctx := context.Background()
	queries := []string{
		`SELECT * FROM e ORDER BY s, d`,
		`SELECT CHEAPEST SUM(r: w) WHERE 1 REACHES 4 OVER e r EDGE (s, d)`,
		`SELECT s, COUNT(*) FROM e GROUP BY s ORDER BY s`,
	}
	for _, q := range queries {
		// Twice per query: the second run serves from the plan cache.
		for i := 0; i < 2; i++ {
			want, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("run %d: session result differs for %s\n%s\nvs\n%s", i, q, got, want)
			}
		}
	}
}

// TestTracedStagesDBAndSession: a traced QueryRows records plan
// resolution and execution as its root stages whether it came through
// the DB or a Session — the two share one body, so their stage lists
// (and the stage histograms fed from them) agree.
func TestTracedStagesDBAndSession(t *testing.T) {
	db := sessionTestDB(t)
	s := db.Session()
	ctx := context.Background()
	const q = `SELECT CHEAPEST SUM(r: w) WHERE 1 REACHES 4 OVER e r EDGE (s, d)`
	for _, tc := range []struct {
		name string
		run  func(QueryOptions) (*Rows, error)
	}{
		{"DB", func(qo QueryOptions) (*Rows, error) { return db.QueryRows(ctx, qo, q) }},
		{"Session", func(qo QueryOptions) (*Rows, error) { return s.QueryRows(ctx, qo, q) }},
	} {
		tr := NewTrace()
		rows, err := tc.run(QueryOptions{Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := rows.Result(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var stages []string
		for _, c := range tr.Tree().Children {
			stages = append(stages, c.Name)
		}
		if !reflect.DeepEqual(stages, []string{"plan", "execute"}) {
			t.Fatalf("%s.QueryRows root spans = %v, want [plan execute]\n%s", tc.name, stages, RenderTrace(tr.Tree()))
		}
	}
}

func TestSessionPlanCacheInvalidation(t *testing.T) {
	db := sessionTestDB(t)
	s := db.Session()
	ctx := context.Background()
	q := `SELECT COUNT(*) FROM e`
	res, err := s.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 4 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// Reshape the catalog: drop and recreate the table. The cached plan
	// holds the old table; staleness must force a re-prepare.
	db.MustExec(`DROP TABLE e`)
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT, w BIGINT)`)
	db.MustExec(`INSERT INTO e VALUES (7, 8, 9)`)
	res, err = s.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1 {
		t.Fatalf("stale plan served: count = %v, want 1", res.Rows[0][0])
	}
	// Parameter kind changes also re-prepare instead of misbinding.
	if _, err := s.Query(ctx, `SELECT s FROM e WHERE s = ?`, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(ctx, `SELECT s FROM e WHERE s = ?`, 7.0); err != nil {
		t.Fatal(err)
	}
}

func TestSessionWorkersOverride(t *testing.T) {
	db := sessionTestDB(t)
	s := db.Session()
	ctx := context.Background()
	want, err := db.Query(`SELECT s, d FROM e ORDER BY s, d`)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, 7} {
		got, err := s.QueryOpts(ctx, QueryOptions{Workers: w}, `SELECT s, d FROM e ORDER BY s, d`)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("workers=%d changed the result", w)
		}
	}
}

func TestQueryCtxPreCanceled(t *testing.T) {
	db := sessionTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, `SELECT * FROM e`); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if _, err := db.Session().Query(ctx, `SELECT * FROM e`); !errors.Is(err, context.Canceled) {
		t.Fatalf("session: expected context.Canceled, got %v", err)
	}
}

// TestQueryCtxCancelMidSolve cancels during a batched solve and
// requires the canceled error well before the query could finish.
func TestQueryCtxCancelMidSolve(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT)`)
	db.MustExec(`CREATE TABLE p (a BIGINT, b BIGINT)`)
	// A random graph plus a pair batch with thousands of distinct
	// sources: every source group is a cancellation point.
	x := uint64(1)
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 17) % uint64(n))
	}
	const nv = 2000
	var b strings.Builder
	b.WriteString(`INSERT INTO e VALUES `)
	for i := 0; i < 12000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", next(nv), next(nv))
	}
	db.MustExec(b.String())
	b.Reset()
	b.WriteString(`INSERT INTO p VALUES `)
	for i := 0; i < nv; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", i, next(nv))
	}
	db.MustExec(b.String())

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	defer wg.Wait()
	_, err := db.QueryCtx(ctx,
		`SELECT p.a, p.b, CHEAPEST SUM(1) FROM p WHERE p.a REACHES p.b OVER e EDGE (s, d)`)
	if err == nil {
		// The machine may genuinely have finished first; pin the
		// behavior with an immediate cancel instead.
		ctx2, cancel2 := context.WithCancel(context.Background())
		cancel2()
		if _, err2 := db.QueryCtx(ctx2, `SELECT COUNT(*) FROM e`); !errors.Is(err2, context.Canceled) {
			t.Fatalf("expected context.Canceled, got %v", err2)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	// The database stays usable after a canceled query.
	if _, err := db.Query(`SELECT COUNT(*) FROM e`); err != nil {
		t.Fatalf("post-cancel query failed: %v", err)
	}
}

// TestSessionRePrepareIsOnePlanHit: re-preparing a statement looks its
// plan up by the same Stmt key execution uses, so it parses nothing and
// counts one plan-cache hit — whether a filter literal was fingerprinted
// into a parameter or not — and NumParams counts the placeholders as the
// client wrote them, not the normalized plan's.
func TestSessionRePrepareIsOnePlanHit(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (id BIGINT, x DOUBLE)`)
	for _, tc := range []struct {
		sql  string
		args []any
		n    int
	}{
		{`SELECT id FROM t WHERE id >= ? AND x < 2.5`, []any{1}, 1},
		{`SELECT id FROM t WHERE id >= ? AND x < ?`, []any{1, 2.5}, 2},
	} {
		s := db.Session()
		if _, err := s.Prepare(tc.sql, tc.args...); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		h0, m0 := db.PlanCacheStats()
		info, err := s.Prepare(tc.sql, tc.args...)
		if err != nil {
			t.Fatalf("%s: re-prepare: %v", tc.sql, err)
		}
		h1, m1 := db.PlanCacheStats()
		if h1-h0 != 1 || m1 != m0 {
			t.Fatalf("%s: re-prepare moved hits by %d and misses by %d, want 1 and 0", tc.sql, h1-h0, m1-m0)
		}
		if info.NumParams != tc.n || !info.IsSelect {
			t.Fatalf("%s: info = %+v, want NumParams %d, IsSelect", tc.sql, info, tc.n)
		}
	}
}

// TestTooFewArgumentsMessage pins the argument-count error of every
// in-process entry point: preparing an under-supplied statement only
// parses it, and execution refuses it with this exact message — for a
// fingerprinted SELECT, a plain one and a write alike.
func TestTooFewArgumentsMessage(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (a BIGINT, b BIGINT)`)
	ctx := context.Background()
	for _, tc := range []struct {
		sql  string
		args []any
		want string
	}{
		{`SELECT a FROM t WHERE a = ? AND b = ?`, []any{1}, "statement uses 2 parameters but 1 argument(s) were supplied"},
		{`SELECT a FROM t WHERE a = ? AND b = 5`, nil, "statement uses 1 parameters but 0 argument(s) were supplied"},
		{`INSERT INTO t VALUES (?, ?)`, []any{1}, "statement uses 2 parameters but 1 argument(s) were supplied"},
	} {
		_, dbErr := db.Query(tc.sql, tc.args...)
		_, sessErr := db.Session().Query(ctx, tc.sql, tc.args...)
		for name, err := range map[string]error{"DB.Query": dbErr, "Session.Query": sessErr} {
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s(%q, %v) = %v, want %q", name, tc.sql, tc.args, err, tc.want)
			}
		}
	}
	if n, _ := db.QueryScalar(`SELECT COUNT(*) FROM t`); n != int64(0) {
		t.Fatalf("an under-supplied INSERT wrote rows: COUNT(*) = %v", n)
	}
}
