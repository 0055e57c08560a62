package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"graphsql/internal/testutil"
	"graphsql/internal/wire"
)

// TestServerStreamedMissFillsCache: a streamed cache miss must be
// admitted into the result cache like a buffered one, and later
// requests — buffered or streamed — must be served from it
// byte-identically to fresh executions.
func TestServerStreamedMissFillsCache(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	q := testutil.Queries()[0]
	want := expectedBodies(t)[q]

	status, stream1, _ := postRaw(t, hs.URL+"/query", &wire.QueryRequest{SQL: q, Stream: true, BatchRows: 3})
	if status != http.StatusOK {
		t.Fatalf("streamed miss: status %d: %s", status, stream1)
	}
	cs := s.Cache().Snapshot()
	if cs.Entries != 1 || cs.Misses == 0 {
		t.Fatalf("streamed miss was not admitted into the cache: %+v", cs)
	}

	// A buffered request is now a hit, and the encoding derived from the
	// stored result matches a fresh buffered execution byte for byte.
	status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
	if status != http.StatusOK {
		t.Fatalf("buffered hit: status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("buffered hit derived from a streamed fill differs:\ngot:  %s\nwant: %s", body, want)
	}
	if hits := s.Cache().Snapshot().Hits; hits == 0 {
		t.Fatal("buffered request after a streamed fill did not hit")
	}

	// A second streamed request hits too, with an identical frame
	// sequence (same batch size, same rows, same trailer).
	status, stream2, ctype := postRaw(t, hs.URL+"/query", &wire.QueryRequest{SQL: q, Stream: true, BatchRows: 3})
	if status != http.StatusOK {
		t.Fatalf("streamed hit: status %d: %s", status, stream2)
	}
	if ctype != wire.StreamContentType {
		t.Fatalf("streamed hit content type %q", ctype)
	}
	if !bytes.Equal(stream1, stream2) {
		t.Fatalf("streamed hit differs from the live stream:\nlive:   %s\ncached: %s", stream1, stream2)
	}
	if hits := s.Cache().Snapshot().Hits; hits < 2 {
		t.Fatalf("streamed request after the fill did not hit (hits=%d)", hits)
	}
}

// TestServerStreamedOversizeNotCached: a streamed result past the
// admission budget still streams completely but is never admitted —
// the collector stops buffering instead of holding the whole result.
func TestServerStreamedOversizeNotCached(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxInFlight: 2, TotalWorkers: 2, CacheBytes: 4096})
	var rows strings.Builder
	rows.WriteString("(0)")
	for i := 1; i < 300; i++ {
		fmt.Fprintf(&rows, ", (%d)", i)
	}
	status, body := postJSON(t, hs.URL+"/graphs/default/load", &wire.LoadRequest{
		Script: "CREATE TABLE nums (x BIGINT); INSERT INTO nums VALUES " + rows.String() + ";",
	})
	if status != http.StatusOK {
		t.Fatalf("load: %d: %s", status, body)
	}
	status, stream, _ := postRaw(t, hs.URL+"/query", &wire.QueryRequest{SQL: "SELECT x FROM nums", Stream: true})
	if status != http.StatusOK {
		t.Fatalf("stream: %d", status)
	}
	folded, _, err := wire.FoldStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if folded.RowCount != 300 {
		t.Fatalf("streamed %d rows, want 300", folded.RowCount)
	}
	if cs := s.Cache().Snapshot(); cs.Entries != 0 {
		t.Fatalf("oversized streamed result was admitted: %+v", cs)
	}
}

// TestServerCacheKeyUnifiesLiteralsAndParams: the literal form of a
// statement and its parameterized form with the same values are one
// cache entry; a different value stays a distinct entry.
func TestServerCacheKeyUnifiesLiteralsAndParams(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")

	lit := "SELECT COUNT(*) FROM knows WHERE src >= 10 AND dst >= 5"
	par := "SELECT COUNT(*) FROM knows WHERE src >= ? AND dst >= ?"
	status, body1 := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: lit})
	if status != http.StatusOK {
		t.Fatalf("literal form: %d: %s", status, body1)
	}
	status, body2 := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: par, Args: []any{10, 5}})
	if status != http.StatusOK {
		t.Fatalf("param form: %d: %s", status, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("literal and param forms answered differently:\n%s\nvs\n%s", body1, body2)
	}
	cs := s.Cache().Snapshot()
	if cs.Hits != 1 || cs.Entries != 1 {
		t.Fatalf("literal and param forms did not share one entry: %+v", cs)
	}

	// Same shape, different value: distinct key, correct (different)
	// execution — sharing the fingerprint must never share the answer.
	status, body3 := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: par, Args: []any{0, 0}})
	if status != http.StatusOK {
		t.Fatalf("different value: %d: %s", status, body3)
	}
	if bytes.Equal(body3, body1) {
		t.Fatal("different argument value served the other variant's answer")
	}
	if cs := s.Cache().Snapshot(); cs.Entries != 2 || cs.Hits != 1 {
		t.Fatalf("different value did not get its own entry: %+v", cs)
	}
}

// TestServerPlanCacheCounters: literal variants through one session
// share a plan, and the counters surface in /stats (per graph) and
// /metrics (summed).
func TestServerPlanCacheCounters(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	// Distinct literals: result-cache misses (different keys), but the
	// second one reuses the first one's fingerprinted plan.
	for i := 1; i <= 3; i++ {
		q := fmt.Sprintf("SELECT COUNT(*) FROM knows WHERE src >= %d", i)
		if status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q, Session: "m"}); status != http.StatusOK {
			t.Fatalf("variant %d: %d: %s", i, status, body)
		}
	}
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	var hits, misses uint64
	for _, g := range stats.Graphs {
		hits += g.PlanCacheHits
		misses += g.PlanCacheMisses
	}
	if hits < 2 || misses == 0 {
		t.Fatalf("plan-cache counters did not move: hits=%d misses=%d (%+v)", hits, misses, stats.Graphs)
	}

	mf := scrapeMetrics(t, hs.URL)
	if _, ok := mf["gsqld_plan_cache_misses_total"]; !ok {
		t.Fatal("/metrics missing gsqld_plan_cache_misses_total")
	}
	if v := mf["gsqld_plan_cache_hits_total"]; v <= 0 {
		t.Fatalf("gsqld_plan_cache_hits_total = %g under literal-variant traffic, want > 0", v)
	}
}

// planCounters sums the session plan-cache counters of every loaded
// graph, as GET /stats reports them.
func planCounters(t *testing.T, base string) (hits, misses uint64) {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, g := range stats.Graphs {
		hits += g.PlanCacheHits
		misses += g.PlanCacheMisses
	}
	return hits, misses
}

// TestServerArgumentCountContract: a /query with too few arguments is a
// 422 sql_error carrying the engine's exact message, in either
// encoding; a /prepare without arguments reports the statement's
// placeholders but caches no plan, and the first typed /execute
// prepares and caches it.
func TestServerArgumentCountContract(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	const q = `SELECT COUNT(*) FROM knows WHERE src >= ? AND dst >= ?`
	const want = "statement uses 2 parameters but 1 argument(s) were supplied"
	for _, stream := range []bool{false, true} {
		status, resp := queryIn(t, hs.URL, wire.QueryRequest{SQL: q, Args: []any{1}}, stream)
		if status != http.StatusUnprocessableEntity || resp.Error == nil ||
			resp.Error.Code != wire.CodeSQL || resp.Error.Message != want {
			t.Fatalf("stream=%v: status %d, error %+v; want 422 %s %q", stream, status, resp.Error, wire.CodeSQL, want)
		}
	}

	prepare := func() wire.PrepareResponse {
		t.Helper()
		status, body := postJSON(t, hs.URL+"/prepare", &wire.PrepareRequest{Session: "p", SQL: q})
		if status != http.StatusOK {
			t.Fatalf("arg-less prepare: %d: %s", status, body)
		}
		var prep wire.PrepareResponse
		if err := json.Unmarshal(body, &prep); err != nil {
			t.Fatal(err)
		}
		if prep.NumParams != 2 {
			t.Fatalf("arg-less prepare: num_params %d, want 2: %s", prep.NumParams, body)
		}
		return prep
	}
	h0, _ := planCounters(t, hs.URL)
	prepare()
	prep := prepare()
	if h, _ := planCounters(t, hs.URL); h != h0 {
		t.Fatalf("re-preparing without arguments hit the plan cache (%d hits): the first prepare cached a plan", h-h0)
	}
	execute := func(a, b int64) {
		t.Helper()
		status, body := postJSON(t, hs.URL+"/execute", &wire.ExecuteRequest{
			Session: "p", StatementID: prep.StatementID, Args: []any{a, b},
		})
		if status != http.StatusOK {
			t.Fatalf("execute(%d, %d): %d: %s", a, b, status, body)
		}
	}
	// Distinct arguments keep the result cache out of the way: every
	// execute resolves its plan.
	execute(1, 2)
	if h1, _ := planCounters(t, hs.URL); h1 != h0 {
		t.Fatalf("first execute hit the plan cache (%d hits): the arg-less prepare cached a plan", h1-h0)
	}
	execute(2, 3)
	if h2, _ := planCounters(t, hs.URL); h2 != h0+1 {
		t.Fatalf("second execute: %d plan-cache hits, want 1: the first execute did not cache its plan", h2-h0)
	}
}
