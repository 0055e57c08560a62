package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"graphsql/internal/fault"
	"graphsql/internal/testutil"
	"graphsql/internal/wire"
)

// postRaw posts a payload and returns status, body and content type.
func postRaw(t *testing.T, url string, payload any) (int, []byte, string) {
	t.Helper()
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header.Get("Content-Type")
}

// TestServerStreamDifferentialEquivalence streams every corpus query
// in small batches and requires the folded stream to re-encode
// byte-identical to the buffered response — the streamed and buffered
// paths may never disagree on a single byte of payload.
func TestServerStreamDifferentialEquivalence(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4, CacheEntries: -1})
	loadCorpus(t, hs.URL, "default")
	want := expectedBodies(t)
	for _, q := range testutil.Queries() {
		status, body, ctype := postRaw(t, hs.URL+"/query",
			&wire.QueryRequest{SQL: q, Stream: true, BatchRows: 7})
		if status != http.StatusOK {
			t.Fatalf("stream status %d: %s\nquery: %s", status, body, q)
		}
		if ctype != wire.StreamContentType {
			t.Fatalf("content type %q, want %q", ctype, wire.StreamContentType)
		}
		folded, _, err := wire.FoldStream(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("fold: %v\nquery: %s\nbody: %s", err, q, body)
		}
		got, err := folded.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[q]) {
			t.Fatalf("stream differs from buffered\nquery: %s\ngot:  %s\nwant: %s", q, got, want[q])
		}
	}
}

// TestServerStreamLargeBounded streams a 122k-row result and checks
// the bounded-memory contract structurally: the response must arrive
// as many batch frames, every frame staying orders of magnitude
// smaller than the whole payload — i.e. at no point did the server
// hold the full response as one encoded blob.
func TestServerStreamLargeBounded(t *testing.T) {
	const side = 350 // side^2 = 122500 rows
	_, hs := newTestServer(t, Config{MaxInFlight: 2, TotalWorkers: 2})
	script := fmt.Sprintf(`CREATE TABLE nums (x BIGINT);
INSERT INTO nums VALUES (0)%s;
CREATE TABLE big (a BIGINT, b BIGINT);
INSERT INTO big SELECT n1.x, n2.x FROM nums n1, nums n2;`, numsList(side))
	status, body := postJSON(t, hs.URL+"/graphs/default/load", &wire.LoadRequest{Script: script})
	if status != http.StatusOK {
		t.Fatalf("load: %d: %s", status, body)
	}

	status, stream, ctype := postRaw(t, hs.URL+"/query",
		&wire.QueryRequest{SQL: `SELECT a, b FROM big`, Stream: true})
	if status != http.StatusOK {
		t.Fatalf("stream: %d: %s", status, stream[:min(len(stream), 200)])
	}
	if ctype != wire.StreamContentType {
		t.Fatalf("content type %q", ctype)
	}
	// Frame-level structure: many lines, each a bounded fraction of the
	// total response.
	total := len(stream)
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, maxLine := 0, 0
	for sc.Scan() {
		lines++
		if l := len(sc.Bytes()); l > maxLine {
			maxLine = l
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	wantFrames := 122500/wire.DefaultBatchRows + 2 // batches + header + trailer
	if lines < wantFrames {
		t.Fatalf("expected >= %d frames, got %d", wantFrames, lines)
	}
	if maxLine > total/20 {
		t.Fatalf("largest frame is %d of %d total bytes — response was not chunked", maxLine, total)
	}
	folded, batches, err := wire.FoldStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if folded.RowCount != 122500 || len(folded.Rows) != 122500 {
		t.Fatalf("row count %d (rows %d), want 122500", folded.RowCount, len(folded.Rows))
	}
	if batches < 100 {
		t.Fatalf("expected >= 100 batch frames, got %d", batches)
	}
}

// TestServerStreamFirstFrameBeforeCompletion is the time-to-first-row
// acceptance test: with a latency fault slowing every operator batch,
// the stream's header and first batch frame must reach the client
// while the query is still executing — the stream starts with the
// first batch, not after the last one. The admission grant is held
// for that whole window (the engine is genuinely working during the
// drain), so the in-flight slot must read 1 when the first frame lands
// and 0 only after the trailer.
func TestServerStreamFirstFrameBeforeCompletion(t *testing.T) {
	t.Cleanup(fault.Reset)
	s, hs := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1, TotalWorkers: 1})
	script := fmt.Sprintf(`CREATE TABLE nums (x BIGINT);
INSERT INTO nums VALUES (0)%s;`, numsList(60))
	if status, body := postJSON(t, hs.URL+"/graphs/default/load", &wire.LoadRequest{Script: script}); status != http.StatusOK {
		t.Fatalf("load: %d: %s", status, body)
	}
	// 20ms before every batch an operator produces: 12 batches of 5 rows
	// make execution take ~some hundreds of ms, far longer than the
	// first frame needs.
	fault.Set(fault.Rule{Point: fault.PointExecBatch, Kind: fault.KindLatency, Latency: 20 * time.Millisecond})

	start := time.Now()
	reqBody, _ := json.Marshal(&wire.QueryRequest{SQL: `SELECT x FROM nums`, Stream: true, BatchRows: 5})
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	header, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	firstBatch, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	ttfr := time.Since(start)
	// The first frame arrived while the query executes: its slot is
	// still in flight, and the trailer is still pending.
	if got := s.adm.Snapshot().InFlight; got != 1 {
		t.Fatalf("in-flight slots after first frame = %d, want 1 (query should still be executing)", got)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	total := time.Since(start)
	stream := append(append(header, firstBatch...), rest...)
	folded, batches, err := wire.FoldStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("fold: %v\nbody: %s", err, stream)
	}
	if folded.RowCount != 60 || batches < 12 {
		t.Fatalf("stream folded to %d rows in %d batches, want 60 rows in >= 12 batches", folded.RowCount, batches)
	}
	// Generous margin: the remaining ~11 batches each slept 20ms after
	// the first frame was already out.
	if ttfr >= total-100*time.Millisecond {
		t.Fatalf("first frame took %v of %v total — stream did not start before execution completed", ttfr, total)
	}
	// The grant comes back once the stream completes.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Snapshot().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight slot still held after the stream completed")
		}
		time.Sleep(time.Millisecond)
	}
}

// numsList renders "(0), (1), ... (n-1)" minus the leading "(0)" that
// the caller already wrote.
func numsList(n int) string {
	var b strings.Builder
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, ", (%d)", i)
	}
	return b.String()
}

// TestServerStreamFromCache: a buffered execution fills the cache; a
// later streamed request of the same statement must be served from the
// cached result and fold back byte-identical to the buffered body.
func TestServerStreamFromCache(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	q := testutil.Queries()[1]
	status, buffered := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
	if status != http.StatusOK {
		t.Fatalf("buffered: %d", status)
	}
	hitsBefore := s.Cache().Snapshot().Hits
	status, stream, _ := postRaw(t, hs.URL+"/query", &wire.QueryRequest{SQL: q, Stream: true, BatchRows: 3})
	if status != http.StatusOK {
		t.Fatalf("stream: %d", status)
	}
	if got := s.Cache().Snapshot().Hits; got != hitsBefore+1 {
		t.Fatalf("cache hits %d, want %d (streamed request missed the cache)", got, hitsBefore+1)
	}
	folded, _, err := wire.FoldStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	got, err := folded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buffered) {
		t.Fatalf("cached stream differs from buffered body\ngot:  %s\nwant: %s", got, buffered)
	}
}

// TestServerPrepareExecute drives the wire-level prepared-statement
// flow: prepare once, execute many times with varying arguments, each
// response byte-identical to the equivalent /query — buffered and
// streamed alike.
func TestServerPrepareExecute(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")

	status, body := postJSON(t, hs.URL+"/prepare", &wire.PrepareRequest{
		Session: "c1",
		SQL:     `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER knows EDGE (src, dst)`,
		Args:    []any{1, 2},
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: %d: %s", status, body)
	}
	var prep wire.PrepareResponse
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.StatementID == "" || prep.NumParams != 2 {
		t.Fatalf("unexpected prepare response: %s", body)
	}

	for _, pair := range [][2]int64{{1, 2}, {1, 13}, {2, 7}} {
		args := []any{pair[0], pair[1]}
		st1, direct := postJSON(t, hs.URL+"/query", &wire.QueryRequest{
			SQL:  `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER knows EDGE (src, dst)`,
			Args: args,
		})
		st2, executed := postJSON(t, hs.URL+"/execute", &wire.ExecuteRequest{
			Session: "c1", StatementID: prep.StatementID, Args: args,
		})
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("args %v: query %d, execute %d: %s", args, st1, st2, executed)
		}
		if !bytes.Equal(direct, executed) {
			t.Fatalf("args %v: execute differs from query\ngot:  %s\nwant: %s", args, executed, direct)
		}
		// Streamed execute folds to the same bytes.
		st3, stream, _ := postRaw(t, hs.URL+"/execute", &wire.ExecuteRequest{
			Session: "c1", StatementID: prep.StatementID, Args: args, Stream: true,
		})
		if st3 != http.StatusOK {
			t.Fatalf("stream execute: %d", st3)
		}
		folded, _, err := wire.FoldStream(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		got, err := folded.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, direct) {
			t.Fatalf("args %v: streamed execute differs", args)
		}
	}

	// Prepare without representative args: binding is deferred to the
	// first typed execution, but the metadata comes back immediately.
	status, body = postJSON(t, hs.URL+"/prepare", &wire.PrepareRequest{
		Session: "c1",
		SQL:     `SELECT COUNT(*) FROM knows WHERE src >= ? AND dst >= ?`,
	})
	if status != http.StatusOK {
		t.Fatalf("arg-less prepare: %d: %s", status, body)
	}
	var deferred wire.PrepareResponse
	if err := json.Unmarshal(body, &deferred); err != nil {
		t.Fatal(err)
	}
	if deferred.NumParams != 2 || deferred.StatementID == "" {
		t.Fatalf("arg-less prepare response: %s", body)
	}
	status, body = postJSON(t, hs.URL+"/execute", &wire.ExecuteRequest{
		Session: "c1", StatementID: deferred.StatementID, Args: []any{int64(0), int64(0)},
	})
	if status != http.StatusOK {
		t.Fatalf("execute of arg-less prepare: %d: %s", status, body)
	}

	// Error paths: no session on prepare, unknown statement id.
	status, body = postJSON(t, hs.URL+"/prepare", &wire.PrepareRequest{SQL: `SELECT 1`})
	if status != http.StatusBadRequest {
		t.Fatalf("session-less prepare: %d: %s", status, body)
	}
	status, body = postJSON(t, hs.URL+"/execute", &wire.ExecuteRequest{Session: "c1", StatementID: "stmt-999"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown statement id: %d: %s", status, body)
	}
	status, body = postJSON(t, hs.URL+"/prepare", &wire.PrepareRequest{Session: "c1", SQL: `SELEKT 1`})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad sql prepare: %d: %s", status, body)
	}
}

// TestServerMetrics drives traffic through every interesting path and
// checks the Prometheus exposition carries it.
func TestServerMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	q := testutil.Queries()[0]
	postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
	postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q}) // cache hit
	postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELEKT`})

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	metric := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v float64
				if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
					t.Fatalf("parse %s: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("metric %s missing in exposition:\n%s", name, text)
		return 0
	}
	if v := metric("gsqld_queries_total"); v < 3 {
		t.Fatalf("gsqld_queries_total = %v", v)
	}
	if v := metric("gsqld_cache_hits_total"); v < 1 {
		t.Fatalf("gsqld_cache_hits_total = %v", v)
	}
	if v := metric("gsqld_query_errors_total"); v < 1 {
		t.Fatalf("gsqld_query_errors_total = %v", v)
	}
	if v := metric("gsqld_workers_total"); v != 4 {
		t.Fatalf("gsqld_workers_total = %v", v)
	}
	// Per-endpoint series: /query histogram and response counts exist.
	for _, needle := range []string{
		`gsqld_http_responses_total{endpoint="/query",code="200"}`,
		`gsqld_http_request_duration_seconds_bucket{endpoint="/query",le="+Inf"}`,
		`gsqld_http_request_duration_seconds_count{endpoint="/query"}`,
		"# TYPE gsqld_http_request_duration_seconds histogram",
		`gsqld_query_stage_seconds_bucket{stage="execute"`,
	} {
		if !strings.Contains(text, needle) {
			t.Fatalf("exposition missing %q:\n%s", needle, text)
		}
	}
	// Histogram consistency: +Inf bucket equals the count.
	var inf, count float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `gsqld_http_request_duration_seconds_bucket{endpoint="/query",le="+Inf"} `) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &inf)
		}
		if strings.HasPrefix(line, `gsqld_http_request_duration_seconds_count{endpoint="/query"} `) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &count)
		}
	}
	if inf == 0 || inf != count {
		t.Fatalf("histogram +Inf %v != count %v", inf, count)
	}
}
