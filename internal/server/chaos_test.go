package server

// Chaos harness: the differential corpus replayed by concurrent clients
// against a live server while a randomized fault schedule fires inside
// the solver, the operators, the cache and the stream encoder. The
// contract under chaos is absolute: the process keeps serving, every
// response is either byte-identical to the fault-free reference or a
// structured error, every admission slot comes back, and no goroutine
// leaks. Run with -race; CI's test job runs the whole suite that way.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"graphsql/internal/fault"
	"graphsql/internal/testutil"
	"graphsql/internal/wire"
)

// post is a goroutine-safe POST helper: no testing.T, so worker
// goroutines can report failures through a channel instead of an
// illegal cross-goroutine FailNow.
func post(url string, payload any) (int, []byte, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// trim bounds a response body for failure messages.
func trim(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// replayClean replays the whole corpus once with no faults armed and
// requires byte-identical responses — the server state survived chaos.
func replayClean(t *testing.T, base string, want map[string][]byte) {
	t.Helper()
	for _, q := range testutil.Queries() {
		status, body := postJSON(t, base+"/query", &wire.QueryRequest{SQL: q})
		if status != http.StatusOK {
			t.Fatalf("post-chaos replay: status %d for %q: %s", status, q, trim(body))
		}
		if !bytes.Equal(body, want[q]) {
			t.Fatalf("post-chaos replay diverged for %q\ngot:  %s\nwant: %s", q, trim(body), trim(want[q]))
		}
	}
}

// TestServerChaosSolverPanic is the acceptance kill-test: panics
// injected into solver workers mid-traversal while 8 clients replay the
// corpus. Exactly the affected queries get structured 500s with code
// "panic"; everything else is byte-identical to the fault-free
// reference; the panic counter moves; all admission slots come back.
func TestServerChaosSolverPanic(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(fault.Reset)
	// Cache disabled so every request truly executes (and can be hit).
	s, hs := newTestServer(t, Config{MaxInFlight: 8, QueueDepth: 64, TotalWorkers: 8, CacheEntries: -1})
	loadCorpus(t, hs.URL, "default")
	want := expectedBodies(t) // reference computed BEFORE arming faults
	queries := testutil.Queries()

	if err := fault.SetSpec("solver.group:panic:p=0.15:seed=1"); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var panicked atomic.Int64
	failures := make(chan string, clients*len(queries))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for _, q := range queries {
					status, body, err := post(hs.URL+"/query", &wire.QueryRequest{SQL: q})
					if err != nil {
						failures <- fmt.Sprintf("client %d: transport error (server died?): %v", c, err)
						return
					}
					switch {
					case status == http.StatusOK && bytes.Equal(body, want[q]):
						// fault-free and byte-exact
					case status == http.StatusInternalServerError:
						var qr wire.QueryResponse
						if json.Unmarshal(body, &qr) != nil || qr.Error == nil || qr.Error.Code != wire.CodePanic {
							failures <- fmt.Sprintf("client %d: 500 without structured panic error: %s", c, trim(body))
							return
						}
						panicked.Add(1)
					default:
						failures <- fmt.Sprintf("client %d: query %q: status %d body %s", c, q, status, trim(body))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}
	if panicked.Load() == 0 {
		t.Fatal("no query hit the injected solver panic; the chaos run asserted nothing")
	}
	if got := s.panics.Load(); got == 0 {
		t.Fatal("gsqld_panics_total stayed zero through a panic storm")
	}
	t.Logf("chaos: %d structured panic responses, %d contained panics", panicked.Load(), s.panics.Load())

	// The process kept serving: a clean replay is byte-identical.
	fault.Reset()
	replayClean(t, hs.URL, want)
	checkAdmissionClean(t, s)

	// And the probe still answers.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestServerChaosMixedFaults layers five fault kinds at once — solver
// panics, stream encode errors, cache-insert errors, operator latency
// and operator errors — over buffered AND streamed clients with the
// result cache on. Every response must be correct or a structured
// error; torn streams must end in an error trailer, never a silent
// truncation; the panics must be counted as contained.
func TestServerChaosMixedFaults(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(fault.Reset)
	// Cache enabled: the cache-insert fault point needs traffic, and
	// cache hits must stay byte-exact under chaos too.
	s, hs := newTestServer(t, Config{MaxInFlight: 8, QueueDepth: 64, TotalWorkers: 8})
	loadCorpus(t, hs.URL, "default")
	want := expectedBodies(t)
	queries := testutil.Queries()

	spec := "solver.group:panic:p=0.2:seed=1;" +
		"wire.stream.encode:error:p=0.3:seed=2;" +
		"server.cache.insert:error:p=0.5:seed=3;" +
		"exec.operator:latency:ms=2:p=0.2:seed=4;" +
		"exec.operator:error:p=0.03:seed=5"
	if err := fault.SetSpec(spec); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var structured atomic.Int64
	failures := make(chan string, clients*len(queries))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := c%2 == 1 // half the clients stream
			for _, q := range queries {
				status, body, err := post(hs.URL+"/query",
					&wire.QueryRequest{SQL: q, Stream: stream, BatchRows: 3})
				if err != nil {
					failures <- fmt.Sprintf("client %d: transport error: %v", c, err)
					return
				}
				if stream {
					if status != http.StatusOK {
						// Pre-stream failure (e.g. operator error before the
						// header): must still be structured.
						var qr wire.QueryResponse
						if json.Unmarshal(body, &qr) != nil || qr.Error == nil {
							failures <- fmt.Sprintf("client %d: unstructured stream failure %d: %s", c, status, trim(body))
							return
						}
						structured.Add(1)
						continue
					}
					folded, _, err := wire.FoldStream(bytes.NewReader(body))
					if err != nil {
						failures <- fmt.Sprintf("client %d: stream torn without trailer: %v: %s", c, err, trim(body))
						return
					}
					if folded.Error != nil {
						if !faultCode(folded.Error.Code) {
							failures <- fmt.Sprintf("client %d: trailer code %q", c, folded.Error.Code)
							return
						}
						structured.Add(1)
						continue
					}
					enc, err := folded.Encode()
					if err != nil || !bytes.Equal(enc, want[q]) {
						failures <- fmt.Sprintf("client %d: folded stream differs for %q", c, q)
						return
					}
					continue
				}
				switch {
				case status == http.StatusOK && bytes.Equal(body, want[q]):
				case status == http.StatusInternalServerError:
					var qr wire.QueryResponse
					if json.Unmarshal(body, &qr) != nil || qr.Error == nil || !faultCode(qr.Error.Code) {
						failures <- fmt.Sprintf("client %d: 500 without structured internal or panic error: %s", c, trim(body))
						return
					}
					structured.Add(1)
				default:
					failures <- fmt.Sprintf("client %d: query %q: status %d body %s", c, q, status, trim(body))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}
	if structured.Load() == 0 {
		t.Fatal("no injected fault surfaced; the mixed chaos run asserted nothing")
	}
	if s.panics.Load() == 0 {
		t.Fatal("gsqld_panics_total stayed zero with solver panics armed")
	}
	t.Logf("chaos: %d structured error responses, %d contained panics", structured.Load(), s.panics.Load())

	fault.Reset()
	replayClean(t, hs.URL, want)
	checkAdmissionClean(t, s)
}

// faultCode reports whether code is what an injected fault may answer:
// internal for an error, panic for a contained panic.
func faultCode(code string) bool {
	return code == wire.CodeInternal || code == wire.CodePanic
}
