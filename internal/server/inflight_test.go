package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"graphsql/internal/fault"
	"graphsql/internal/wire"
)

func getQueries(t *testing.T, base string) *QueriesResponse {
	t.Helper()
	resp, err := http.Get(base + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/queries: status %d: %s", resp.StatusCode, body)
	}
	out := &QueriesResponse{}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("/queries: bad JSON %q: %v", body, err)
	}
	return out
}

// waitUntil polls until cond is satisfied or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestQueriesMidFlightCancel drives the in-flight listing through a
// full lifecycle under -race: a running query shows up with its
// granted workers, a second query behind it shows stage "admission"
// while queued, canceling the first lets the second run and counts it
// abandoned exactly once (gsqld_queries_abandoned_total), and the table
// is empty once both finish. Per-operator latency injection makes the
// first query deterministically slow without any real data volume.
func TestQueriesMidFlightCancel(t *testing.T) {
	// One slot, one worker: query B must queue behind query A.
	s, hs := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 8, TotalWorkers: 1, CacheEntries: -1})
	loadCorpus(t, hs.URL, "default")

	if empty := getQueries(t, hs.URL); len(empty.Queries) != 0 {
		t.Fatalf("fresh server lists queries: %+v", empty.Queries)
	}

	// Installed after the corpus load so the load itself runs at full
	// speed; every exec operator now sleeps 100ms.
	if err := fault.SetSpec("exec.operator:latency:ms=100"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)

	type result struct {
		status int
		err    error
	}
	post := func(ctx context.Context, sql string) result {
		reqBody, _ := json.Marshal(&wire.QueryRequest{SQL: sql})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/query", bytes.NewReader(reqBody))
		if err != nil {
			return result{err: err}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return result{err: err}
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return result{status: resp.StatusCode}
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aDone := make(chan result, 1)
	go func() { aDone <- post(ctxA, `SELECT * FROM people`) }()

	// A must appear as an executing entry with its worker grant.
	waitUntil(t, "query A executing", func() bool {
		q := getQueries(t, hs.URL)
		for _, e := range q.Queries {
			if strings.Contains(e.Fingerprint, "people") && e.Workers == 1 && e.Stage != "admission" && e.Stage != "" {
				return true
			}
		}
		return false
	})

	bDone := make(chan result, 1)
	go func() { bDone <- post(context.Background(), `SELECT * FROM knows`) }()

	// B queues behind A: no grant yet, stage reads "admission".
	waitUntil(t, "query B queued", func() bool {
		q := getQueries(t, hs.URL)
		if len(q.Queries) != 2 {
			return false
		}
		for _, e := range q.Queries {
			if strings.Contains(e.Fingerprint, "knows") {
				return e.Stage == "admission" && e.Workers == 0 && e.ElapsedMS >= 0
			}
		}
		return false
	})

	// Cancel A mid-flight: it aborts at the next operator boundary, B
	// gets the slot, and the table eventually drains.
	abandoned := s.canceled.Load()
	cancelA()
	ra := <-aDone
	if ra.err == nil && ra.status != 499 {
		t.Fatalf("canceled query A: status %d, err %v (want 499 or transport error)", ra.status, ra.err)
	}
	rb := <-bDone
	if rb.err != nil || rb.status != http.StatusOK {
		t.Fatalf("query B after cancel: %+v", rb)
	}
	waitUntil(t, "in-flight table to drain", func() bool {
		return len(getQueries(t, hs.URL).Queries) == 0
	})
	// A query leaves the table only after its failure was counted.
	if got := s.canceled.Load() - abandoned; got != 1 {
		t.Fatalf("canceling query A moved the abandoned counter by %d, want 1", got)
	}
}

// TestQueriesFingerprintNormalized: the listing shows the normalized
// statement shape, not literal values.
func TestQueriesFingerprintNormalized(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheEntries: -1})
	loadCorpus(t, hs.URL, "default")
	if err := fault.SetSpec("exec.operator:latency:ms=50"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)

	done := make(chan struct{})
	go func() {
		defer close(done)
		reqBody, _ := json.Marshal(&wire.QueryRequest{SQL: `SELECT id FROM people WHERE id = 12345`})
		resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(reqBody))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	found := false
	waitUntil(t, "normalized fingerprint in /queries", func() bool {
		for _, e := range getQueries(t, hs.URL).Queries {
			if strings.Contains(e.Fingerprint, "id = ?") && !strings.Contains(e.Fingerprint, "12345") {
				found = true
			}
		}
		return found
	})
	<-done
	if !found {
		t.Fatal(fmt.Errorf("normalized fingerprint never appeared"))
	}
}
