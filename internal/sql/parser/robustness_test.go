package parser

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParserNeverPanics feeds mutated fragments of valid queries to
// the parser; every input must either parse or return an error — no
// panics, no hangs.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		`SELECT a, b FROM t WHERE x = 1 AND y REACHES z OVER e f EDGE (s, d)`,
		`WITH c AS (SELECT 1) SELECT CHEAPEST SUM(f: w * 2) AS (cost, path) FROM t`,
		`SELECT * FROM (SELECT 1) q, UNNEST(q.p) WITH ORDINALITY AS r ORDER BY 1 DESC LIMIT 3`,
		`INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, CAST('1' AS INT))`,
		`SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t GROUP BY a HAVING COUNT(*) > 1`,
		`SELECT 1 UNION ALL SELECT 2 EXCEPT SELECT 3 INTERSECT SELECT 4`,
		`SELECT x FROM a WHERE x IN (SELECT y FROM b) AND EXISTS (SELECT 1)`,
	}
	tokens := []string{
		"SELECT", "FROM", "WHERE", "(", ")", ",", "REACHES", "OVER",
		"EDGE", "CHEAPEST", "SUM", "UNNEST", "''", "1", "?", "*", "||",
		"AND", "OR", "NOT", "AS", ";", ".", "<", "=", "JOIN", "ON",
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		src := seeds[r.Intn(len(seeds))]
		switch r.Intn(4) {
		case 0: // truncate at a random byte
			if len(src) > 0 {
				src = src[:r.Intn(len(src))]
			}
		case 1: // splice in a random token
			parts := strings.Fields(src)
			if len(parts) > 0 {
				i := r.Intn(len(parts))
				parts[i] = tokens[r.Intn(len(tokens))]
				src = strings.Join(parts, " ")
			}
		case 2: // delete a random word
			parts := strings.Fields(src)
			if len(parts) > 1 {
				i := r.Intn(len(parts))
				src = strings.Join(append(parts[:i], parts[i+1:]...), " ")
			}
		case 3: // duplicate a random word
			parts := strings.Fields(src)
			if len(parts) > 0 {
				i := r.Intn(len(parts))
				parts = append(parts[:i+1], parts[i:]...)
				src = strings.Join(parts, " ")
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("parser panicked on %q: %v", src, p)
				}
			}()
			s := NewScript(src)
			for {
				stmt, err := s.Next()
				if err != nil || stmt == nil {
					break
				}
			}
		}()
	}
}

// TestParserErrorsArePositioned checks that syntax errors report line
// and column.
func TestParserErrorsArePositioned(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE +")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks position: %v", err)
	}
}
