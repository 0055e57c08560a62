// Package testutil holds the shared differential-test corpus: a
// deterministic dataset-building script and a set of end-to-end SQL
// queries spanning every relational operator plus the paper's graph
// extension. The differential harness (differential_test.go at the
// repository root) executes the corpus at several parallelism settings
// and requires byte-identical result renderings; the SQL front-end
// fuzz target seeds from the same statements. The package also holds
// the independent shortest-path oracle (oracle.go), the row-at-a-time
// relational oracle (relational.go) and the goroutine leak check. It
// imports nothing from the engine but the value model (internal/types)
// on purpose — it must be importable from the root package's tests,
// internal/sql and internal/exec without cycles, and the oracles must
// share no code with what they check.
package testutil

import (
	"fmt"
	"strings"
)

// lcg is a tiny deterministic generator so the dataset never depends
// on math/rand's algorithm or seeding across Go versions.
type lcg struct{ x uint64 }

func (l *lcg) next() uint64 {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	return l.x >> 17
}

// intn returns a value in [0, n).
func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

// Corpus dimensions. Large enough that an opened parallel-operator
// gate exercises every partitioned code path, small enough to keep the
// harness fast.
const (
	numPeople = 400
	numEdges  = 1600
	numPairs  = 60
	numTeams  = 12
)

// SetupScript returns the semicolon-separated DDL + INSERT script that
// builds the differential dataset: a social graph (people, knows), a
// dimension table (teams) and a query-pair table (pairs). NULLs are
// sprinkled over nullable attributes; edge weights stay strictly
// positive (a CHEAPEST SUM requirement).
func SetupScript() string {
	var b strings.Builder
	for _, s := range SetupStatements() {
		b.WriteString(s)
		b.WriteString(";\n")
	}
	return b.String()
}

// SetupStatements returns the script as individual statements.
func SetupStatements() []string {
	r := &lcg{x: 0x9E3779B97F4A7C15}
	stmts := []string{
		`CREATE TABLE teams (id BIGINT, name VARCHAR)`,
		`CREATE TABLE people (id BIGINT, name VARCHAR, team BIGINT, score DOUBLE)`,
		`CREATE TABLE knows (src BIGINT, dst BIGINT, w BIGINT, f DOUBLE)`,
		`CREATE TABLE pairs (a BIGINT, b BIGINT)`,
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO teams VALUES `)
	for i := 0; i < numTeams; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'team_%c')", i, 'a'+i)
	}
	stmts = append(stmts, b.String())

	b.Reset()
	b.WriteString(`INSERT INTO people VALUES `)
	for i := 0; i < numPeople; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		team := "NULL"
		if r.intn(10) != 0 {
			team = fmt.Sprint(r.intn(numTeams))
		}
		score := "NULL"
		if r.intn(8) != 0 {
			score = fmt.Sprintf("%d.%02d", r.intn(100), r.intn(100))
		}
		fmt.Fprintf(&b, "(%d, 'p%03d', %s, %s)", i, i, team, score)
	}
	stmts = append(stmts, b.String())

	b.Reset()
	b.WriteString(`INSERT INTO knows VALUES `)
	for i := 0; i < numEdges; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		src, dst := r.intn(numPeople), r.intn(numPeople)
		fmt.Fprintf(&b, "(%d, %d, %d, %d.%02d)", src, dst, 1+r.intn(9), 1+r.intn(5), r.intn(100))
	}
	stmts = append(stmts, b.String())

	b.Reset()
	b.WriteString(`INSERT INTO pairs VALUES `)
	for i := 0; i < numPairs; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", r.intn(numPeople), r.intn(numPeople))
	}
	stmts = append(stmts, b.String())
	return stmts
}

// Queries returns the golden corpus: end-to-end SQL statements spanning
// joins, grouping, ordering, DISTINCT, set operations, subqueries,
// CTEs, and the graph extension (REACHES, CHEAPEST SUM, paths,
// UNNEST) — alone and combined. Every query is deterministic given the
// engine's determinism guarantee, which is exactly what the
// differential harness verifies across parallelism settings.
func Queries() []string {
	return []string{
		// Scans, filters, expressions.
		`SELECT * FROM people WHERE team = 3`,
		`SELECT id, score * 2, name || '!' FROM people WHERE score > 50`,
		`SELECT id FROM people WHERE name LIKE 'p1%' AND team IS NOT NULL`,
		`SELECT CASE WHEN score > 66 THEN 'hi' WHEN score > 33 THEN 'mid' ELSE 'lo' END, id FROM people`,
		`SELECT id FROM people WHERE team BETWEEN 2 AND 5 ORDER BY id DESC LIMIT 17 OFFSET 3`,

		// Joins: inner, left, self, cross, multi-key, residual.
		`SELECT p.id, t.name FROM people p JOIN teams t ON p.team = t.id`,
		`SELECT p.id, t.name FROM people p LEFT JOIN teams t ON p.team = t.id`,
		`SELECT a.id, b.id FROM people a JOIN people b ON a.team = b.team AND a.id < b.id WHERE a.score > 80`,
		`SELECT COUNT(*) FROM people p, teams t WHERE p.team = t.id AND p.score > t.id * 7`,
		`SELECT COUNT(*) FROM knows k1 JOIN knows k2 ON k1.dst = k2.src`,
		`SELECT k1.src, k2.dst, k1.w + k2.w FROM knows k1 JOIN knows k2 ON k1.dst = k2.src AND k1.w = k2.w`,
		`SELECT COUNT(*) FROM teams a, teams b`,
		`SELECT p.id FROM people p LEFT JOIN teams t ON p.team = t.id AND t.name LIKE '%a' WHERE t.id IS NULL`,

		// Semi/anti joins via IN / EXISTS.
		`SELECT id FROM people WHERE id IN (SELECT src FROM knows WHERE w > 7)`,
		`SELECT id FROM people WHERE id NOT IN (SELECT dst FROM knows WHERE w = 1)`,
		`SELECT COUNT(*) FROM people WHERE EXISTS (SELECT 1 FROM knows WHERE w > 8)
		 AND team IN (SELECT id FROM teams WHERE name LIKE 'team_%')`,

		// Aggregation: global, grouped, HAVING, DISTINCT aggregates.
		`SELECT COUNT(*), COUNT(team), COUNT(score), SUM(team), MIN(score), MAX(name), AVG(score) FROM people`,
		`SELECT team, COUNT(*), SUM(score) FROM people GROUP BY team`,
		`SELECT team, AVG(score) FROM people GROUP BY team HAVING COUNT(*) > 25`,
		`SELECT w, COUNT(*), COUNT(DISTINCT src), MIN(f), MAX(f) FROM knows GROUP BY w`,
		`SELECT t.name, COUNT(*), AVG(p.score) FROM people p JOIN teams t ON p.team = t.id GROUP BY t.name`,
		`SELECT src % 4, SUM(w), AVG(f) FROM knows GROUP BY src % 4`,
		`SELECT COUNT(DISTINCT team) FROM people WHERE score IS NOT NULL`,

		// Ordering: multi-key, NULLS FIRST/LAST, expressions.
		`SELECT id, team, score FROM people ORDER BY team NULLS FIRST, score DESC, id`,
		`SELECT id, score FROM people ORDER BY score DESC NULLS LAST, id LIMIT 25`,
		`SELECT src, dst, w FROM knows ORDER BY w DESC, src, dst LIMIT 40`,
		`SELECT team, COUNT(*) AS c FROM people GROUP BY team ORDER BY c DESC, team NULLS FIRST`,

		// DISTINCT and set operations.
		`SELECT DISTINCT team FROM people`,
		`SELECT DISTINCT w, src % 3 FROM knows`,
		`SELECT src FROM knows UNION SELECT dst FROM knows`,
		`SELECT src FROM knows UNION ALL SELECT dst FROM knows`,
		`SELECT src FROM knows WHERE w > 5 EXCEPT SELECT dst FROM knows WHERE w < 3`,
		`SELECT src FROM knows EXCEPT ALL SELECT dst FROM knows`,
		`SELECT src FROM knows INTERSECT SELECT dst FROM knows`,
		`SELECT src, dst FROM knows WHERE w > 4 INTERSECT ALL SELECT src, dst FROM knows WHERE f > 3`,

		// Derived tables and CTEs.
		`SELECT t.c, t.team FROM (SELECT team, COUNT(*) AS c FROM people GROUP BY team) t WHERE t.c > 20`,
		`WITH busy AS (SELECT src, COUNT(*) AS deg FROM knows GROUP BY src)
		 SELECT p.id, b.deg FROM people p JOIN busy b ON p.id = b.src WHERE b.deg > 6 ORDER BY b.deg DESC, p.id`,
		`WITH hub AS (SELECT src FROM knows GROUP BY src HAVING COUNT(*) >= 7)
		 SELECT COUNT(*) FROM hub`,

		// Graph extension: reachability, cheapest paths, batched form,
		// paths + UNNEST, combined with relational operators.
		`SELECT CHEAPEST SUM(1) WHERE 1 REACHES 42 OVER knows EDGE (src, dst)`,
		`SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 42 OVER knows k EDGE (src, dst)`,
		`SELECT CHEAPEST SUM(k: f) WHERE 2 REACHES 77 OVER knows k EDGE (src, dst)`,
		`SELECT p.a, p.b, CHEAPEST SUM(1) AS hops FROM pairs p
		 WHERE p.a REACHES p.b OVER knows EDGE (src, dst)`,
		`SELECT p.a, p.b, CHEAPEST SUM(k: w) AS cost FROM pairs p
		 WHERE p.a REACHES p.b OVER knows k EDGE (src, dst) ORDER BY cost DESC, p.a, p.b`,
		`SELECT q.a, COUNT(*) FROM (
		   SELECT p.a, p.b, CHEAPEST SUM(k: w) AS cost FROM pairs p
		   WHERE p.a REACHES p.b OVER knows k EDGE (src, dst)
		 ) q GROUP BY q.a HAVING MIN(q.cost) < 9`,
		`SELECT t.cost, r.src, r.dst, r.w, r.ordinality FROM (
		   SELECT CHEAPEST SUM(k: w) AS (cost, path) WHERE 3 REACHES 99 OVER knows k EDGE (src, dst)
		 ) t, UNNEST(t.path) WITH ORDINALITY AS r ORDER BY r.ordinality`,
		`SELECT p.a, SUM(r.w) FROM (
		   SELECT x.a, x.b, CHEAPEST SUM(k: w) AS (c, pth) FROM pairs x
		   WHERE x.a REACHES x.b OVER knows k EDGE (src, dst)
		 ) p, UNNEST(p.pth) AS r GROUP BY p.a`,
		`SELECT src FROM knows WHERE src REACHES 7 OVER knows EDGE (src, dst) AND w = 9`,

		// Kitchen sink: join + graph + aggregation + sort + limit.
		`WITH far AS (
		   SELECT p.a, p.b, CHEAPEST SUM(1) AS hops FROM pairs p
		   WHERE p.a REACHES p.b OVER knows EDGE (src, dst)
		 )
		 SELECT t.name, COUNT(*), MIN(f.hops) FROM far f
		 JOIN people pe ON f.a = pe.id
		 LEFT JOIN teams t ON pe.team = t.id
		 GROUP BY t.name ORDER BY t.name NULLS FIRST`,
	}
}

// FuzzSeeds returns every corpus statement (setup and queries) for
// seeding the SQL front-end fuzz target.
func FuzzSeeds() []string {
	return append(SetupStatements(), Queries()...)
}
