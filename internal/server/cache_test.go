package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"graphsql"
	"graphsql/internal/testutil"
	"graphsql/internal/wire"
)

// TestCacheKeyDistinguishesArgTypes: 1 (BIGINT), 1.0 (DOUBLE), "1"
// (VARCHAR) and true must produce four distinct keys, and an
// unsupported argument type is refused before any key is built.
func TestCacheKeyDistinguishesArgTypes(t *testing.T) {
	key := func(graph string, gen int64, dv uint64, sql string, args ...any) string {
		t.Helper()
		st, err := graphsql.NewStmt(sql, args...)
		if err != nil {
			t.Fatalf("NewStmt(%q, %v): %v", sql, args, err)
		}
		return cacheKey(graph, gen, dv, st)
	}
	seen := map[string]bool{}
	for _, arg := range []any{int64(1), float64(1), "1", true} {
		k := key("g", 1, 1, "SELECT ?", arg)
		if seen[k] {
			t.Fatalf("arg %v (%T): key collision", arg, arg)
		}
		seen[k] = true
	}
	if _, err := graphsql.NewStmt("SELECT ?", []byte("x")); err == nil {
		t.Fatal("unsupported arg type accepted")
	}
	// Version components must separate keys.
	base := key("g", 1, 1, "SELECT 1")
	if key("g", 2, 1, "SELECT 1") == base || key("g", 1, 2, "SELECT 1") == base {
		t.Fatal("generation/data-version not part of the key")
	}
	// Field boundaries are self-delimiting: payload bytes that mimic a
	// separator or an adjacent field's tag must never collide two
	// distinct requests onto one key.
	if key("g", 1, 1, "SELECT ? || ?", "x", "y\x00sz") ==
		key("g", 1, 1, "SELECT ? || ?", "x\x00sy", "z") {
		t.Fatal("NUL inside a string argument shifted field boundaries")
	}
	if key("g\x001", 2, 1, "SELECT 1") == key("g", 12, 1, "SELECT 1") {
		t.Fatal("graph-name bytes leaked into the generation field")
	}
}

// TestCacheableSQL checks the read/write keyword classification.
func TestCacheableSQL(t *testing.T) {
	stmt := func(q string) *graphsql.Stmt {
		t.Helper()
		st, err := graphsql.NewStmt(q)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, q := range []string{
		"SELECT 1", "  \n\tselect 1", "WITH c AS (SELECT 1) SELECT * FROM c",
		"-- tagged\nSELECT 1", "/* app:r7 */ SELECT 1", "/* a */ -- b\n /* c */ SELECT 1",
	} {
		if !stmt(q).Reads() {
			t.Fatalf("%q should be cacheable", q)
		}
	}
	// Unterminated comments classify as neither (the lexer rejects them).
	if stmt("/* open SELECT 1").Reads() || stmt("-- only a comment").Reads() {
		t.Fatal("comment-only/unterminated input misclassified as cacheable")
	}
	for _, q := range []string{"INSERT INTO t VALUES (1)", "DELETE FROM t", "CREATE TABLE t (x BIGINT)", "DROP TABLE t", "SET parallelism = 1", ""} {
		if stmt(q).Reads() {
			t.Fatalf("%q should not be cacheable", q)
		}
	}
	for _, q := range []string{"INSERT INTO t VALUES (1)", "delete FROM t", "CREATE TABLE t (x BIGINT)", "DROP TABLE t", "/* app */ INSERT INTO t VALUES (1)", "-- note\nDROP TABLE t"} {
		if !stmt(q).Writes() {
			t.Fatalf("%q should invalidate", q)
		}
	}
	if stmt("SELECT 1").Writes() || stmt("SET parallelism = 2").Writes() {
		t.Fatal("reads/SET must not invalidate")
	}
}

// TestCacheLRUBudgets: the entry budget evicts least-recently-used
// first; the byte budget evicts too; oversized entries are refused.
func TestCacheLRUBudgets(t *testing.T) {
	rc := NewResultCache(2, 1<<20)
	res := &graphsql.Result{}
	put := func(k string) { rc.Put(k, "g", res) }
	put("a")
	put("b")
	if _, ok := rc.Get("a"); !ok { // promotes a over b
		t.Fatal("a missing")
	}
	put("c") // evicts b (LRU)
	if _, ok := rc.Get("b"); ok {
		t.Fatal("b survived past the entry budget")
	}
	if _, ok := rc.Get("a"); !ok {
		t.Fatal("a (recently used) was evicted instead of b")
	}
	snap := rc.Snapshot()
	if snap.Entries != 2 || snap.Evictions != 1 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	// An entry above a quarter of the byte budget is never admitted —
	// its size is its encoded length (here one big string cell).
	rc2 := NewResultCache(100, 2048)
	big := &graphsql.Result{Columns: []string{"s"}, Rows: [][]any{{strings.Repeat("x", 600)}}}
	rc2.Put("huge", "g", big)
	if rc2.Snapshot().Entries != 0 {
		t.Fatal("oversized entry admitted")
	}
	rc2.Put("small", "g", res)
	if rc2.Snapshot().Entries != 1 {
		t.Fatal("small entry refused: admission budget miscomputed")
	}
	// The byte budget evicts from the back: eight ~315-byte entries do
	// not fit 1600 bytes.
	rc3 := NewResultCache(100, 4*400)
	mid := &graphsql.Result{Columns: []string{"s"}, Rows: [][]any{{strings.Repeat("x", 300)}}}
	for i := 0; i < 8; i++ {
		rc3.Put(fmt.Sprintf("k%d", i), "g", mid)
	}
	if s := rc3.Snapshot(); s.Bytes > s.MaxBytes || s.Entries == 8 {
		t.Fatalf("byte budget not enforced: %+v", s)
	}
}

// TestCacheInvalidateGraph drops exactly the named graph's entries.
func TestCacheInvalidateGraph(t *testing.T) {
	rc := NewResultCache(10, 1<<20)
	res := &graphsql.Result{}
	rc.Put("k1", "a", res)
	rc.Put("k2", "b", res)
	rc.Put("k3", "a", res)
	if n := rc.InvalidateGraph("a"); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if _, ok := rc.Get("k2"); !ok {
		t.Fatal("unrelated graph's entry was purged")
	}
	if s := rc.Snapshot(); s.Invalidated != 2 || s.Entries != 1 {
		t.Fatalf("unexpected snapshot: %+v", s)
	}
}

// TestServerCacheHit: a repeated SELECT is served from the cache with
// byte-identical content, and the hit/miss counters move.
func TestServerCacheHit(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	q := testutil.Queries()[0]
	_, first := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
	_, second := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
	if !bytes.Equal(first, second) {
		t.Fatalf("cached response differs:\n%s\nvs\n%s", first, second)
	}
	cs := s.Cache().Snapshot()
	if cs.Hits == 0 || cs.Misses == 0 || cs.Entries == 0 {
		t.Fatalf("cache counters did not move: %+v", cs)
	}
	// /stats carries the cache snapshot.
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		t.Fatalf("stats missing cache hits: %+v", stats.Cache)
	}
}

// TestServerCacheHitKeepsSessionAlive: a session whose requests keep
// hitting the result cache is still active and must keep its LRU stamp
// fresh — churning fresh sessions past MaxSessions must evict the
// idle churners, not the cache-hitting session with prepared state.
func TestServerCacheHitKeepsSessionAlive(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxSessions: 2, MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	status, body := postJSON(t, hs.URL+"/prepare", &wire.PrepareRequest{
		Session: "keep", SQL: `SELECT COUNT(*) FROM knows`,
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: %d: %s", status, body)
	}
	var prep wire.PrepareResponse
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*) FROM people`
	if status, _ := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q, Session: "keep"}); status != http.StatusOK {
		t.Fatal("cache-filling query failed")
	}
	for i := 0; i < 6; i++ {
		// The keep session's request hits the cache…
		if status, _ := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q, Session: "keep"}); status != http.StatusOK {
			t.Fatalf("round %d: cached query failed", i)
		}
		// …while churners put eviction pressure on the 2-slot table.
		if status, _ := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT 1`, Session: fmt.Sprintf("churn-%d", i)}); status != http.StatusOK {
			t.Fatalf("round %d: churner failed", i)
		}
	}
	// The prepared statement must have survived the churn.
	status, body = postJSON(t, hs.URL+"/execute", &wire.ExecuteRequest{
		Session: "keep", StatementID: prep.StatementID,
	})
	if status != http.StatusOK {
		t.Fatalf("prepared statement lost under cache-hit traffic: %d: %s", status, body)
	}
}

// TestServerCacheInvalidationOnWrite: INSERT and DELETE between
// repeated SELECTs must never let a stale count through — queries run
// twice per step so the second response of each pair is a cache hit —
// and every write purges the graph's entries, whichever encoding the
// write (and the reads that filled the cache) asked for.
func TestServerCacheInvalidationOnWrite(t *testing.T) {
	for _, stream := range []bool{false, true} {
		s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
		count := func(want int64) {
			t.Helper()
			for i := 0; i < 2; i++ {
				status, resp := queryIn(t, hs.URL, wire.QueryRequest{SQL: `SELECT COUNT(*) FROM churn`}, stream)
				if status != http.StatusOK || resp.Error != nil {
					t.Fatalf("stream=%v count: status %d: %+v", stream, status, resp)
				}
				if got := fmt.Sprint(resp.Rows); got != fmt.Sprintf("[[%d]]", want) {
					t.Fatalf("stream=%v pass %d: got %s, want [[%d]] (stale cache entry served?)", stream, i, got, want)
				}
			}
		}
		mustExec := func(sql string) {
			t.Helper()
			filled := s.Cache().Snapshot()
			status, resp := queryIn(t, hs.URL, wire.QueryRequest{SQL: sql}, stream)
			if status != http.StatusOK || resp.Error != nil {
				t.Fatalf("stream=%v exec %s: status %d: %+v", stream, sql, status, resp)
			}
			purged := s.Cache().Snapshot()
			if purged.Entries != 0 || purged.Invalidated-filled.Invalidated != uint64(filled.Entries) {
				t.Fatalf("stream=%v exec %s: %d entries left, %d purged; want all %d purged",
					stream, sql, purged.Entries, purged.Invalidated-filled.Invalidated, filled.Entries)
			}
		}
		mustExec(`CREATE TABLE churn (x BIGINT)`)
		count(0)
		mustExec(`INSERT INTO churn VALUES (1)`)
		count(1)
		mustExec(`INSERT INTO churn VALUES (2), (3)`)
		count(3)
		mustExec(`DELETE FROM churn WHERE x = 2`)
		count(2)
		mustExec(`DELETE FROM churn`)
		count(0)
		if hits := s.Cache().Snapshot().Hits; hits < 5 {
			t.Fatalf("stream=%v: expected a cache hit per repeated count, got %d", stream, hits)
		}
	}
}

// TestServerReloadKeepsZonesHonest: a reload swaps in tables whose
// rows run the other way; a range scan that skips windows by their
// zones answers from the new rows, like the same range given no bound
// (OR 1 = 0) to skip by.
func TestServerReloadKeepsZonesHonest(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	const rows = 3000
	for _, desc := range []bool{false, true} {
		var b strings.Builder
		b.WriteString("CREATE TABLE t (seq BIGINT); INSERT INTO t VALUES ")
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			seq := i
			if desc {
				seq = rows - 1 - i
			}
			fmt.Fprintf(&b, "(%d)", seq)
		}
		if status, body := postJSON(t, hs.URL+"/graphs/default/load", &wire.LoadRequest{Script: b.String()}); status != http.StatusOK {
			t.Fatalf("load: status %d: %s", status, body)
		}
		for lo := int64(0); lo < rows; lo += 700 {
			answer := func(sql string) []byte {
				t.Helper()
				status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: sql, Args: []any{lo, lo + 128}})
				if status != http.StatusOK {
					t.Fatalf("query: status %d: %s", status, body)
				}
				return body
			}
			got := answer(`SELECT seq FROM t WHERE seq >= ? AND seq < ?`)
			want := answer(`SELECT seq FROM t WHERE (seq >= ? AND seq < ?) OR 1 = 0`)
			if !bytes.Equal(got, want) || !bytes.Contains(got, []byte(`"row_count":128`)) {
				t.Fatalf("descending=%v, seq in [%d, %d): pruned answer\n%s\nwant\n%s", desc, lo, lo+128, got, want)
			}
		}
	}
}

// TestServerCacheInvalidationOnReload: a copy-on-swap reload must
// retire every cached result of the previous generation.
func TestServerCacheInvalidationOnReload(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	load := func(rows string) {
		t.Helper()
		status, body := postJSON(t, hs.URL+"/graphs/default/load", &wire.LoadRequest{
			Script: `CREATE TABLE v (x BIGINT); INSERT INTO v VALUES ` + rows + `;`,
		})
		if status != http.StatusOK {
			t.Fatalf("load: status %d: %s", status, body)
		}
	}
	query := func() []byte {
		t.Helper()
		status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT COUNT(*) FROM v`})
		if status != http.StatusOK {
			t.Fatalf("query: status %d: %s", status, body)
		}
		return body
	}
	load(`(1), (2)`)
	query()
	if !bytes.Contains(query(), []byte(`"rows":[[2]]`)) {
		t.Fatal("pre-reload count wrong")
	}
	load(`(1), (2), (3)`)
	if got := query(); !bytes.Contains(got, []byte(`"rows":[[3]]`)) {
		t.Fatalf("stale generation served after reload: %s", got)
	}
	if s.Cache().Snapshot().Invalidated == 0 {
		t.Fatal("reload purged nothing")
	}
}

// TestServerCacheChurnConcurrent is the race-enabled churn scenario: 8
// clients replay cacheable corpus queries (byte-compared against
// in-process execution) interleaved with a monotonic COUNT over a
// table a writer keeps growing — a stale cache entry would show the
// count going backwards — while a reloader swaps a second graph
// beneath its own readers.
func TestServerCacheChurnConcurrent(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxInFlight: 16, QueueDepth: 256, TotalWorkers: 16, CacheEntries: 64})
	loadCorpus(t, hs.URL, "default")
	loadCorpus(t, hs.URL, "reloaded")
	if status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: `CREATE TABLE grow (x BIGINT)`}); status != http.StatusOK {
		t.Fatalf("create: %d: %s", status, body)
	}
	want := expectedBodies(t)
	queries := testutil.Queries()[:8]

	const clients = 8
	errs := make(chan error, clients+2)
	stop := make(chan struct{})
	var aux sync.WaitGroup

	// Writer: grows the table, invalidating default-graph entries.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			status, body := postJSON(t, hs.URL+"/query",
				&wire.QueryRequest{SQL: fmt.Sprintf(`INSERT INTO grow VALUES (%d)`, i)})
			if status != http.StatusOK {
				errs <- fmt.Errorf("writer: status %d: %s", status, body)
				return
			}
		}
	}()
	// Reloader: swaps the second graph under its readers.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				return
			default:
			}
			status, body := postJSON(t, hs.URL+"/graphs/reloaded/load",
				&wire.LoadRequest{Script: testutil.SetupScript()})
			if status != http.StatusOK {
				errs <- fmt.Errorf("reloader: status %d: %s", status, body)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastCount := int64(-1)
			for round := 0; round < 6; round++ {
				for i := range queries {
					q := queries[(i+c*3)%len(queries)]
					status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d: status %d: %s\nquery: %s", c, status, body, q)
						return
					}
					if !bytes.Equal(body, want[q]) {
						errs <- fmt.Errorf("client %d: body differs under churn\nquery: %s", c, q)
						return
					}
					// The reloaded graph always answers consistently.
					status, _ = postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: queries[0], Graph: "reloaded"})
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d: reloaded graph status %d", c, status)
						return
					}
					// Monotonic witness: a stale cached count would step
					// backwards.
					var resp wire.QueryResponse
					status, body = postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT COUNT(*) FROM grow`})
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d: count status %d: %s", c, status, body)
						return
					}
					if err := json.Unmarshal(body, &resp); err != nil {
						errs <- err
						return
					}
					n := int64(0)
					if len(resp.Rows) == 1 && len(resp.Rows[0]) == 1 {
						if f, ok := resp.Rows[0][0].(float64); ok {
							n = int64(f)
						}
					}
					if n < lastCount {
						errs <- fmt.Errorf("client %d: count went backwards %d -> %d (stale cache served)", c, lastCount, n)
						return
					}
					lastCount = n
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
