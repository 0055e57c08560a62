package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphsql/internal/fault"
	"graphsql/internal/testutil"
	"graphsql/internal/wire"
)

// postFull posts a payload and returns status, body and response
// headers (postJSON drops the headers; Retry-After lives there).
func postFull(t *testing.T, url string, payload any) (int, []byte, http.Header) {
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// decodeError decodes a structured error body, failing on anything else.
func decodeError(t *testing.T, body []byte) *wire.Error {
	t.Helper()
	var qr wire.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil || qr.Error == nil {
		t.Fatalf("response is not a structured error: %s", body)
	}
	return qr.Error
}

// checkAdmissionClean asserts every slot and worker went back.
func checkAdmissionClean(t *testing.T, s *Server) {
	t.Helper()
	adm := s.adm.Snapshot()
	if adm.InFlight != 0 || adm.Queued != 0 || adm.WorkersFree != adm.Workers {
		t.Fatalf("admission leaked: in_flight=%d queued=%d workers_free=%d/%d",
			adm.InFlight, adm.Queued, adm.WorkersFree, adm.Workers)
	}
}

// TestServerPanicContainment is the layer-by-layer acceptance check: a
// panic injected inside an exec operator comes back as a structured 500
// with code "panic" — whichever encoding was asked for: the operator
// tree panics while it opens, before a stream's header frame — the same
// keep-alive client then gets a byte-identical 200 for the same query,
// the failure counters moved identically, and no admission slot or
// goroutine leaked.
func TestServerPanicContainment(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(fault.Reset)
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	want := expectedBodies(t) // before arming: the reference runs the same engine

	for i, stream := range []bool{false, true} {
		// A query per encoding: the 200 that ends each round fills the
		// result cache, and a hit executes nothing.
		q := testutil.Queries()[i]
		before := s.failureCounters()
		if err := fault.Set(fault.Rule{Point: fault.PointExecOperator, Kind: fault.KindPanic}); err != nil {
			t.Fatal(err)
		}
		status, resp := queryIn(t, hs.URL, wire.QueryRequest{SQL: q}, stream)
		if status != http.StatusInternalServerError {
			t.Fatalf("stream=%v: status %d, want 500: %+v", stream, status, resp)
		}
		if resp.Error == nil || resp.Error.Code != wire.CodePanic {
			t.Fatalf("stream=%v: error %+v, want code %q", stream, resp.Error, wire.CodePanic)
		}
		if got, want := s.failureCounters().since(before), (failureCounters{errors: 1, panics: 1}); got != want {
			t.Fatalf("stream=%v: counter deltas %+v, want %+v", stream, got, want)
		}

		fault.Reset()
		status, resp = queryIn(t, hs.URL, wire.QueryRequest{SQL: q}, stream)
		if status != http.StatusOK {
			t.Fatalf("stream=%v: server did not keep serving after contained panic: %d: %+v", stream, status, resp)
		}
		body, err := resp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want[q]) {
			t.Fatalf("stream=%v: post-panic response differs from reference\ngot:  %s\nwant: %s", stream, body, want[q])
		}
		checkAdmissionClean(t, s)
	}

	// The counter reaches the exposition endpoint.
	if v := scrapeMetrics(t, hs.URL)["gsqld_panics_total"]; v < 1 {
		t.Fatalf("gsqld_panics_total = %g, want >= 1", v)
	}
}

// TestServerMiddlewarePanicRecovery panics on the handler goroutine,
// past the engine boundary: the result-cache insert panics after
// execution succeeded. The drain's own recover (the instrumentation
// middleware's is the last resort behind it) must answer a structured
// panic error in the shape the encoding still allows — a 500 body, or
// the trailer of a stream whose header is out — count it the same in
// both, and the process must keep serving.
func TestServerMiddlewarePanicRecovery(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(fault.Reset)
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")

	for i, stream := range []bool{false, true} {
		// A query per encoding: only a miss reaches the cache insert.
		q := testutil.Queries()[1+i]
		before := s.failureCounters()
		if err := fault.Set(fault.Rule{Point: fault.PointCacheInsert, Kind: fault.KindPanic}); err != nil {
			t.Fatal(err)
		}
		status, resp := queryIn(t, hs.URL, wire.QueryRequest{SQL: q}, stream)
		wantStatus := http.StatusInternalServerError
		if stream {
			wantStatus = http.StatusOK
		}
		if status != wantStatus {
			t.Fatalf("stream=%v: status %d, want %d: %+v", stream, status, wantStatus, resp)
		}
		if resp.Error == nil || resp.Error.Code != wire.CodePanic {
			t.Fatalf("stream=%v: error %+v, want code %q", stream, resp.Error, wire.CodePanic)
		}
		if got, want := s.failureCounters().since(before), (failureCounters{errors: 1, panics: 1}); got != want {
			t.Fatalf("stream=%v: counter deltas %+v, want %+v", stream, got, want)
		}
		checkAdmissionClean(t, s)

		fault.Reset()
		if status, resp := queryIn(t, hs.URL, wire.QueryRequest{SQL: q}, stream); status != http.StatusOK || resp.Error != nil {
			t.Fatalf("stream=%v: server dead after contained panic: %d: %+v", stream, status, resp)
		}
	}
}

// TestServerStreamFaultTrailer verifies a stream is only ever torn by a
// structured error trailer: a panic mid-drain folds to code "panic", a
// plain injected error to code "internal" — never a silent truncation —
// and that the buffered encoding classifies and counts the same fault
// identically. exec.batch fires inside the drain both encodings share;
// wire.stream.encode sits in the NDJSON encoder, which only a stream
// crosses.
func TestServerStreamFaultTrailer(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(fault.Reset)
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4, CacheEntries: -1})
	loadCorpus(t, hs.URL, "default")
	q := testutil.Queries()[0]

	for _, tc := range []struct {
		point   string
		kind    fault.Kind
		code    string
		streams []bool
	}{
		{fault.PointStreamEncode, fault.KindPanic, wire.CodePanic, []bool{true}},
		{fault.PointStreamEncode, fault.KindError, wire.CodeInternal, []bool{true}},
		{fault.PointExecBatch, fault.KindPanic, wire.CodePanic, []bool{false, true}},
		{fault.PointExecBatch, fault.KindError, wire.CodeInternal, []bool{false, true}},
	} {
		for _, stream := range tc.streams {
			label := fmt.Sprintf("%s kind %v stream=%v", tc.point, tc.kind, stream)
			before := s.failureCounters()
			if err := fault.Set(fault.Rule{Point: tc.point, Kind: tc.kind}); err != nil {
				t.Fatal(err)
			}
			status, resp := queryIn(t, hs.URL, wire.QueryRequest{SQL: q, BatchRows: 2}, stream)
			fault.Reset()
			// A stream's header frame is on the wire before the fault
			// fires, so its HTTP status is already 200 and the error rides
			// the trailer; the buffered body still owns the status.
			wantStatus := http.StatusOK
			if !stream {
				wantStatus = http.StatusInternalServerError
			}
			if status != wantStatus {
				t.Fatalf("%s: status %d, want %d", label, status, wantStatus)
			}
			if resp.Error == nil || resp.Error.Code != tc.code {
				t.Fatalf("%s: error %+v, want code %q", label, resp.Error, tc.code)
			}
			wantDelta := failureCounters{errors: 1}
			if tc.code == wire.CodePanic {
				wantDelta.panics = 1
			}
			if got := s.failureCounters().since(before); got != wantDelta {
				t.Fatalf("%s: counter deltas %+v, want %+v", label, got, wantDelta)
			}
		}
	}
	checkAdmissionClean(t, s)
}

// TestServerUnencodableCell: a result cell with no JSON encoding (an
// overflow to +Inf) is a server-side failure in both encodings — code
// internal, counted as an error and never as canceled — and a stream
// whose only batch failed to encode reports zero delivered rows. The
// failed result is not cached: a repeat fails the same way.
func TestServerUnencodableCell(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	for _, stream := range []bool{false, true} {
		for pass := 0; pass < 2; pass++ {
			label := fmt.Sprintf("stream=%v pass %d", stream, pass)
			before := s.failureCounters()
			status, body, _ := postRaw(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT 1e308 * 10.0 AS x`, Stream: stream})
			wantStatus, want := http.StatusInternalServerError,
				`{"row_count":0,"error":{"code":"internal","message":"json: unsupported value: +Inf"}}`
			if stream {
				wantStatus, want = http.StatusOK, `{"columns":["x"]}`+"\n"+want+"\n"
			}
			if status != wantStatus || string(body) != want {
				t.Fatalf("%s: status %d, body\n%s\nwant %d, body\n%s", label, status, body, wantStatus, want)
			}
			if got := s.failureCounters().since(before); got != (failureCounters{errors: 1}) {
				t.Fatalf("%s: counter deltas %+v, want one error and nothing canceled", label, got)
			}
		}
	}
	if e := s.Cache().Snapshot().Entries; e != 0 {
		t.Fatalf("%d cache entries, want the failed result uncached", e)
	}
	checkAdmissionClean(t, s)
}

// encFailScript loads a table whose query
//
//	SELECT id, x * 1e308 AS y FROM enc WHERE id % 2 = 0
//
// returns ten rows, the fifth of them (id 10) finite and the sixth
// (id 12, x = 2.0) overflowing to +Inf. The filter keeps one or two
// rows of each scanned batch, so at any batch_rows the executor's
// batches are ragged and the bad row falls inside one of them.
func encFailScript() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE enc (id BIGINT, x DOUBLE);\nINSERT INTO enc VALUES ")
	for id := 1; id <= 20; id++ {
		x := fmt.Sprintf("%d.0 / 100", id)
		if id == 12 {
			x = "2.0"
		}
		if id > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %s)", id, x)
	}
	return b.String()
}

// TestServerMidStreamEncodeFailure pins the bytes of a cell that fails
// to encode partway through a result, as recorded from the encoder that
// cut frames in fixed windows before encoding them. Every complete
// frame ahead of the bad row goes out and the error trailer counts
// exactly their rows; the frame holding the bad row never does. The
// buffered body is the plain error. The query log's rows field counts
// the rows written to the client.
func TestServerMidStreamEncodeFailure(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	lb := &logBuffer{}
	logger := slog.New(slog.NewTextHandler(lb, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4, Logger: logger})
	if status, body := postJSON(t, hs.URL+"/graphs/default/load", &wire.LoadRequest{Script: encFailScript()}); status != http.StatusOK {
		t.Fatalf("load: status %d: %s", status, body)
	}
	const (
		header  = `{"columns":["id","y"]}` + "\n"
		failure = `"error":{"code":"internal","message":"json: unsupported value: +Inf"}}`
	)
	for _, c := range []struct {
		batchRows int // 0: the buffered body
		status    int
		body      string
		rows      string
	}{
		{1, http.StatusOK, header +
			`{"rows":[[2,2e+306]]}` + "\n" +
			`{"rows":[[4,4e+306]]}` + "\n" +
			`{"rows":[[6,6e+306]]}` + "\n" +
			`{"rows":[[8,8e+306]]}` + "\n" +
			`{"rows":[[10,1.0000000000000001e+307]]}` + "\n" +
			`{"row_count":5,` + failure + "\n", "5"},
		{2, http.StatusOK, header +
			`{"rows":[[2,2e+306],[4,4e+306]]}` + "\n" +
			`{"rows":[[6,6e+306],[8,8e+306]]}` + "\n" +
			`{"row_count":4,` + failure + "\n", "4"},
		{3, http.StatusOK, header +
			`{"rows":[[2,2e+306],[4,4e+306],[6,6e+306]]}` + "\n" +
			`{"row_count":3,` + failure + "\n", "3"},
		{1024, http.StatusOK, header + `{"row_count":0,` + failure + "\n", "0"},
		{0, http.StatusInternalServerError, `{"row_count":0,` + failure, "0"},
	} {
		before, lines := s.failureCounters(), len(lb.lines())
		req := &wire.QueryRequest{SQL: `SELECT id, x * 1e308 AS y FROM enc WHERE id % 2 = 0`, Stream: c.batchRows > 0, BatchRows: c.batchRows}
		status, body, _ := postRaw(t, hs.URL+"/query", req)
		if status != c.status || string(body) != c.body {
			t.Fatalf("batch_rows %d: status %d, body\n%s\nwant %d, body\n%s", c.batchRows, status, body, c.status, c.body)
		}
		if got := s.failureCounters().since(before); got != (failureCounters{errors: 1}) {
			t.Fatalf("batch_rows %d: counter deltas %+v, want one error", c.batchRows, got)
		}
		waitUntil(t, "query log line", func() bool { return len(lb.lines()) > lines })
		line := lb.lines()[lines]
		if logAttr(line, "outcome") != wire.CodeInternal || logAttr(line, "rows") != c.rows {
			t.Fatalf("batch_rows %d: log line %q, want outcome internal and rows=%s", c.batchRows, line, c.rows)
		}
	}
	if e := s.Cache().Snapshot().Entries; e != 0 {
		t.Fatalf("%d cache entries, want the failed result uncached", e)
	}
	checkAdmissionClean(t, s)
}

// TestServerQueueWaitDeadline pins the only execution slot and requires
// a queued request to be shed at the queue-wait deadline with a 503,
// code queue_timeout, and a Retry-After hint — while the query timeout
// (much larger) never enters the picture.
func TestServerQueueWaitDeadline(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s, hs := newTestServer(t, Config{
		MaxInFlight: 1, QueueDepth: 8, TotalWorkers: 1,
		QueueWait:    50 * time.Millisecond,
		QueryTimeout: time.Minute,
	})
	loadCorpus(t, hs.URL, "default")

	pin, err := s.adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	status, body, hdr := postFull(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT 1`})
	waited := time.Since(start)
	pin.Release()

	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, body)
	}
	if e := decodeError(t, body); e.Code != wire.CodeQueueTimeout {
		t.Fatalf("error code %q, want %q", e.Code, wire.CodeQueueTimeout)
	}
	if waited > 10*time.Second {
		t.Fatalf("queue-wait shed took %v; deadline not applied", waited)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	checkAdmissionClean(t, s)

	// The shed was pre-execution, so the retry the header promises works.
	if status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT 1`}); status != http.StatusOK {
		t.Fatalf("retry after queue_timeout: %d: %s", status, body)
	}
}

// TestServerQueueFullRetryAfter: with queueing disabled, an overload
// rejection must also carry the Retry-After hint.
func TestServerQueueFullRetryAfter(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1, TotalWorkers: 1})
	pin, err := s.adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	status, body, hdr := postFull(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT 1`})
	pin.Release()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, body)
	}
	if e := decodeError(t, body); e.Code != wire.CodeQueueFull {
		t.Fatalf("error code %q, want %q", e.Code, wire.CodeQueueFull)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
}

// TestServerHealthzDegraded: /healthz stays 200 (liveness) but flips
// Status to "degraded" right after a contained panic, reporting the
// panic count and recency so a balancer can drain the instance.
func TestServerHealthzDegraded(t *testing.T) {
	t.Cleanup(fault.Reset)
	_, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")

	getHealth := func() (int, *HealthResponse) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &h
	}

	if status, h := getHealth(); status != http.StatusOK || h.Status != "ok" || h.PanicsRecovered != 0 {
		t.Fatalf("fresh health = %d %+v, want 200/ok/0 panics", status, h)
	}

	if err := fault.Set(fault.Rule{Point: fault.PointExecOperator, Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	if status, _ := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: testutil.Queries()[0]}); status != http.StatusInternalServerError {
		t.Fatalf("fault query status %d, want 500", status)
	}
	fault.Reset()

	status, h := getHealth()
	if status != http.StatusOK {
		t.Fatalf("healthz must stay 200 while alive; got %d", status)
	}
	if h.Status != "degraded" || h.PanicsRecovered < 1 || h.SecondsSinceLastPanic <= 0 || h.SecondsSinceLastPanic > degradedPanicWindow.Seconds() {
		t.Fatalf("post-panic health %+v, want degraded with recent panic", h)
	}
}
