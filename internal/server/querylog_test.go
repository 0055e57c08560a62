package server

import (
	"bytes"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graphsql/internal/wire"
)

// logBuffer is a bytes.Buffer the server's log handler may write while
// the test reads it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines returns the log lines written so far.
func (b *logBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(b.buf.String(), "\n"), "\n")
}

// logAttr returns the (unquoted) value of key in a slog text line, or
// "" when the line lacks it.
func logAttr(line, key string) string {
	_, rest, ok := strings.Cut(line, " "+key+"=")
	if !ok {
		return ""
	}
	if q, err := strconv.QuotedPrefix(rest); err == nil {
		v, _ := strconv.Unquote(q)
		return v
	}
	v, _, _ := strings.Cut(rest, " ")
	return v
}

// queryLog runs each statement on a fresh server logging at DEBUG,
// waiting for its log line before the next one (the line is written
// after the response), and returns the lines in statement order.
func queryLog(t *testing.T, slowMillis int, sqls ...string) []string {
	t.Helper()
	lb := &logBuffer{}
	logger := slog.New(slog.NewTextHandler(lb, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, hs := newTestServer(t, Config{Logger: logger, SlowQueryMillis: slowMillis})
	loadCorpus(t, hs.URL, "default")
	before := len(lb.lines())
	for i, sql := range sqls {
		postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: sql})
		waitUntil(t, "query log line", func() bool { return len(lb.lines()) > before+i })
	}
	return lb.lines()[before:]
}

// TestServerSlowQueryLog holds the query-log contract behind gsqld's
// -slow-query-ms. With a negative threshold every query logs one WARN
// "slow query" line carrying its id, its normalized fingerprint (no
// literal values), its outcome and, when it executed, its
// execute-stage time; a cache hit executes nothing. A zero threshold
// disables the slow log: the same queries log at DEBUG only.
func TestServerSlowQueryLog(t *testing.T) {
	const (
		miss = `SELECT COUNT(*) FROM knows WHERE src >= 17`
		bad  = `SELECT COUNT(*) FROM nosuch WHERE a = 17`
	)
	want := []struct {
		fingerprint, outcome string
		executed             bool
	}{
		{`SELECT COUNT(*) FROM knows WHERE src >= ?`, "ok", true},
		{`SELECT COUNT(*) FROM knows WHERE src >= ?`, "ok", false}, // cache hit
		{`SELECT COUNT(*) FROM nosuch WHERE a = ?`, wire.CodeSQL, false},
	}

	lines := queryLog(t, -1, miss, miss, bad)
	if len(lines) != len(want) {
		t.Fatalf("got %d log lines for %d queries:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	ids := map[string]bool{}
	for i, line := range lines {
		w := want[i]
		if logAttr(line, "level") != "WARN" || logAttr(line, "msg") != "slow query" {
			t.Errorf("line %d is not a WARN slow-query line:\n%s", i, line)
		}
		if id := logAttr(line, "query_id"); id == "" || ids[id] {
			t.Errorf("line %d: query_id %q missing or repeated:\n%s", i, id, line)
		} else {
			ids[id] = true
		}
		if got := logAttr(line, "fingerprint"); got != w.fingerprint {
			t.Errorf("line %d: fingerprint %q, want %q", i, got, w.fingerprint)
		}
		if got := logAttr(line, "outcome"); got != w.outcome {
			t.Errorf("line %d: outcome %q, want %q", i, got, w.outcome)
		}
		if got := logAttr(line, "stage_execute") != ""; got != w.executed {
			t.Errorf("line %d: stage_execute present = %v, want %v:\n%s", i, got, w.executed, line)
		}
	}
	if got := logAttr(lines[1], "cache_hit"); got != "true" {
		t.Errorf("repeated query logged cache_hit=%q, want true", got)
	}

	for i, line := range queryLog(t, 0, miss, miss, bad) {
		if logAttr(line, "level") != "DEBUG" || logAttr(line, "msg") != "query" {
			t.Errorf("SlowQueryMillis 0: line %d is not a DEBUG query line:\n%s", i, line)
		}
	}
}
