package parser

import (
	"strings"
	"testing"

	"graphsql/internal/testutil"
)

// FuzzParse drives the lexer and parser with arbitrary statement text.
// The invariant is panic-freedom: every input either parses or returns
// an error. Seeds come from the differential-test corpus, so the fuzz
// frontier starts at the full supported grammar (joins, aggregation,
// set operations, REACHES / CHEAPEST SUM, UNNEST, CTEs) rather than at
// the empty string.
//
// CI runs a short -fuzz smoke; `go test -fuzz FuzzParse ./internal/sql/parser`
// explores further locally.
func FuzzParse(f *testing.F) {
	for _, seed := range testutil.FuzzSeeds() {
		f.Add(seed)
	}
	f.Add("SELECT")
	f.Add(`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)`)
	f.Add("WITH x AS (SELECT 1) SELECT * FROM x;;; SELECT 2")
	f.Add("SELECT 'unterminated")
	f.Add("SELECT 1e999, .5, 0x, `q`")
	f.Add("CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);\nSELECT a FROM t; SELECT COUNT(*) FROM t")
	f.Add("SELECT 1; -- a comment; still a comment\n/* and ; this */ SELECT 2;;")
	f.Add("SELECT 1; SELECT 2; SELECT 'unterminated; SELECT 4")
	f.Add("SELECT 1;\nSELECT 2 /* unterminated")
	f.Add("CREATE TABLE t (a VARCHAR(1; 2)); SELECT 1")
	f.Fuzz(func(t *testing.T, sql string) {
		// Every entry point must be total: a panic (slice overrun,
		// infinite recursion blowing the stack) is the only failure.
		stmt, nparams, err := ParseWithParams(sql)
		if err == nil && stmt == nil {
			t.Fatalf("ParseWithParams(%q): nil statement without error", sql)
		}
		if nparams < 0 {
			t.Fatalf("ParseWithParams(%q): negative parameter count %d", sql, nparams)
		}
		// The script iterator ends with nil, nil or an error, and every
		// statement it yields has non-empty source text in the script.
		s := NewScript(sql)
		for n := 0; ; n++ {
			stmt, err := s.Next()
			if err != nil || stmt == nil {
				break
			}
			if text := s.Text(); text == "" || !strings.Contains(sql, text) {
				t.Fatalf("NewScript(%q): statement %d has text %q", sql, n, text)
			}
			if n > len(sql) {
				t.Fatalf("NewScript(%q): more statements than bytes", sql)
			}
		}
	})
}
