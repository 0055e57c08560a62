package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

// TestEngineNeverPanics drives mutated queries through the whole
// pipeline (parse → bind → rewrite → execute) against a populated
// catalog; every input must either produce a result or an error.
func TestEngineNeverPanics(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE t (a BIGINT, b VARCHAR, c DOUBLE, d DATE);
		INSERT INTO t VALUES (1, 'x', 1.5, '2020-01-01'), (2, NULL, NULL, NULL);
		CREATE TABLE g (s BIGINT, dd BIGINT, w BIGINT);
		INSERT INTO g VALUES (1, 2, 3), (2, 3, 4);
	`); err != nil {
		t.Fatal(err)
	}
	seeds := []string{
		`SELECT a, b FROM t WHERE a = 1`,
		`SELECT CHEAPEST SUM(f: w) AS (cost, path) WHERE 1 REACHES 3 OVER g f EDGE (s, dd)`,
		`SELECT q.cost, r.s FROM (SELECT CHEAPEST SUM(f: 1) AS (cost, path) WHERE 1 REACHES 3 OVER g f EDGE (s, dd)) q, UNNEST(q.path) AS r`,
		`SELECT COUNT(*), SUM(a) FROM t GROUP BY b HAVING COUNT(*) > 0 ORDER BY 1 LIMIT 5`,
		`WITH v AS (SELECT a FROM t) SELECT * FROM v WHERE a IN (SELECT a FROM t)`,
		`SELECT t1.a FROM t t1 LEFT JOIN t t2 ON t1.a = t2.a`,
		`SELECT a FROM t UNION SELECT s FROM g EXCEPT SELECT 9`,
		`SELECT CASE WHEN a > 1 THEN b ELSE 'z' END FROM t ORDER BY c DESC NULLS LAST`,
	}
	words := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "(", ")",
		"REACHES", "OVER", "EDGE", "CHEAPEST", "SUM", "UNNEST", "path",
		"a", "b", "t", "g", "s", "dd", "w", "1", "'x'", "NULL", "*",
		",", "AND", "OR", "=", "<", "JOIN", "ON", "AS", "IN", "EXISTS",
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 1500; trial++ {
		src := seeds[r.Intn(len(seeds))]
		parts := strings.Fields(src)
		switch r.Intn(4) {
		case 0:
			if len(parts) > 1 {
				parts = parts[:1+r.Intn(len(parts)-1)]
			}
		case 1:
			if len(parts) > 0 {
				parts[r.Intn(len(parts))] = words[r.Intn(len(words))]
			}
		case 2:
			if len(parts) > 1 {
				i := r.Intn(len(parts))
				parts = append(parts[:i], parts[i+1:]...)
			}
		case 3:
			i := r.Intn(len(parts) + 1)
			parts = append(parts[:i], append([]string{words[r.Intn(len(words))]}, parts[i:]...)...)
		}
		src = strings.Join(parts, " ")
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("engine panicked on %q: %v", src, p)
				}
			}()
			_, _ = e.QueryCtx(context.Background(), src)
		}()
	}
}
