package engine

import (
	"context"
	"strings"
	"testing"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// run executes SQL, failing the test on error.
func run(t *testing.T, e *Engine, sql string, params ...types.Value) *storage.Chunk {
	t.Helper()
	res, err := e.QueryCtx(context.Background(), sql, params...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

// mustFail executes SQL and requires an error containing substr.
func mustFail(t *testing.T, e *Engine, sql string, substr string) {
	t.Helper()
	_, err := e.QueryCtx(context.Background(), sql)
	if err == nil {
		t.Fatalf("query %q: expected error containing %q", sql, substr)
	}
	if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(substr)) {
		t.Fatalf("query %q: error %q does not contain %q", sql, err, substr)
	}
}

// rows flattens a chunk into boxed values for comparison.
func rows(c *storage.Chunk) [][]types.Value {
	out := make([][]types.Value, c.NumRows())
	for i := range out {
		out[i] = c.Row(i)
	}
	return out
}

// checkCells compares a result against expected stringified cells.
func checkCells(t *testing.T, c *storage.Chunk, want [][]string) {
	t.Helper()
	if c.NumRows() != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", c.NumRows(), len(want), c)
	}
	for i, wr := range want {
		got := c.Row(i)
		if len(got) != len(wr) {
			t.Fatalf("row %d has %d cells, want %d", i, len(got), len(wr))
		}
		for j, w := range wr {
			if got[j].String() != w {
				t.Fatalf("cell (%d,%d) = %q, want %q\n%s", i, j, got[j].String(), w, c)
			}
		}
	}
}

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	script := `
		CREATE TABLE nums (n BIGINT, f DOUBLE, s VARCHAR, b BOOLEAN, d DATE);
		INSERT INTO nums VALUES
			(1, 1.5, 'one',   TRUE,  '2020-01-01'),
			(2, 2.5, 'two',   FALSE, '2020-06-15'),
			(3, NULL, 'three', TRUE,  '2021-03-10'),
			(NULL, 4.5, NULL,  NULL,  NULL);
		CREATE TABLE dept (id BIGINT, name VARCHAR);
		CREATE TABLE emp (id BIGINT, dept_id BIGINT, salary BIGINT);
		INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty');
		INSERT INTO emp VALUES (10, 1, 100), (11, 1, 200), (12, 2, 150), (13, NULL, 50);
	`
	if _, err := e.ExecScript(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSelectProjectionAndArithmetic(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT n + 1, n * 2, n - 1, 7 / 2, 7 % 3, -n FROM nums WHERE n = 3`)
	checkCells(t, res, [][]string{{"4", "6", "2", "3", "1", "-3"}})
	res = run(t, e, `SELECT 7.0 / 2`)
	checkCells(t, res, [][]string{{"3.5"}})
}

func TestDivisionByZero(t *testing.T) {
	e := testEngine(t)
	mustFail(t, e, `SELECT 1 / 0`, "division by zero")
	mustFail(t, e, `SELECT 1 % 0`, "modulo by zero")
}

// TestPredicateErrorsAreEager pins that an AND/OR operand that can fail
// is evaluated over the whole batch: a row the other operand already
// decided still raises its error, in SELECT and DELETE alike.
func TestPredicateErrorsAreEager(t *testing.T) {
	e := New()
	run(t, e, `CREATE TABLE t (a BIGINT, s VARCHAR)`)
	run(t, e, `INSERT INTO t VALUES (0, '1'), (2, '2'), (5, 'x')`)
	for _, q := range []string{
		`SELECT a FROM t WHERE a <> 0 AND 10 / a > 1`,
		`SELECT a FROM t WHERE a > 100 AND 10 / a > 1`,
		`SELECT a FROM t WHERE a = 0 OR 10 / a > 1`,
		`SELECT a FROM t WHERE NOT (a = 0 OR a % a = 0)`,
		`DELETE FROM t WHERE a <> 0 AND 10 / a > 1`,
		`SELECT a <> 0 AND 10 / a > 1 FROM t`,
		`SELECT CASE WHEN a = 0 OR NOT 10 / a > 1 THEN 1 END FROM t`,
	} {
		mustFail(t, e, q, "by zero")
	}
	mustFail(t, e, `SELECT a FROM t WHERE s <> 'x' AND CAST(s AS BIGINT) > 0`, "cannot cast")
	checkCells(t, run(t, e, `SELECT COUNT(*) FROM t`), [][]string{{"3"}})
	// Without a failing operand the narrowing is invisible.
	checkCells(t, run(t, e, `SELECT a FROM t WHERE a <> 0 AND a + 10 > 12`), [][]string{{"5"}})
}

func TestNullPropagation(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT n + 1, f * 2, s || 'x' FROM nums WHERE n IS NULL`)
	checkCells(t, res, [][]string{{"NULL", "9", "NULL"}})
}

func TestThreeValuedLogic(t *testing.T) {
	e := testEngine(t)
	// NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
	res := run(t, e, `SELECT b AND FALSE, b OR TRUE, b AND TRUE FROM nums WHERE n IS NULL`)
	checkCells(t, res, [][]string{{"false", "true", "NULL"}})
	// WHERE treats NULL as false.
	res = run(t, e, `SELECT n FROM nums WHERE f > 100 OR b`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (NULL b rows dropped)\n%s", res.NumRows(), res)
	}
}

func TestComparisonsAndBetween(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT n FROM nums WHERE n BETWEEN 2 AND 3 ORDER BY n`)
	checkCells(t, res, [][]string{{"2"}, {"3"}})
	res = run(t, e, `SELECT n FROM nums WHERE n NOT BETWEEN 2 AND 3`)
	checkCells(t, res, [][]string{{"1"}})
	res = run(t, e, `SELECT n FROM nums WHERE n IN (1, 3, 99) ORDER BY n`)
	checkCells(t, res, [][]string{{"1"}, {"3"}})
	res = run(t, e, `SELECT n FROM nums WHERE n NOT IN (1, 3)`)
	checkCells(t, res, [][]string{{"2"}})
	// x NOT IN (..., NULL) is never true when x is not in the list.
	res = run(t, e, `SELECT n FROM nums WHERE n NOT IN (1, NULL)`)
	if res.NumRows() != 0 {
		t.Fatalf("NOT IN with NULL must yield no rows:\n%s", res)
	}
}

func TestLike(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT s FROM nums WHERE s LIKE 't%' ORDER BY s`)
	checkCells(t, res, [][]string{{"three"}, {"two"}})
	res = run(t, e, `SELECT s FROM nums WHERE s LIKE '_ne'`)
	checkCells(t, res, [][]string{{"one"}})
	res = run(t, e, `SELECT s FROM nums WHERE s NOT LIKE '%e'`)
	checkCells(t, res, [][]string{{"two"}})
	res = run(t, e, `SELECT s FROM nums WHERE s LIKE '%hr%'`)
	checkCells(t, res, [][]string{{"three"}})
}

func TestCaseExpression(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT CASE WHEN n = 1 THEN 'one' WHEN n = 2 THEN 'two' ELSE 'many' END
		FROM nums WHERE n IS NOT NULL ORDER BY n`)
	checkCells(t, res, [][]string{{"one"}, {"two"}, {"many"}})
	res = run(t, e, `SELECT CASE n WHEN 1 THEN 10 WHEN 2 THEN 20 END FROM nums ORDER BY n NULLS LAST`)
	checkCells(t, res, [][]string{{"10"}, {"20"}, {"NULL"}, {"NULL"}})
	// Mixed int/float branches promote to float.
	res = run(t, e, `SELECT CASE WHEN TRUE THEN 1 ELSE 2.5 END`)
	checkCells(t, res, [][]string{{"1"}})
}

func TestCastsAndDates(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT CAST(2.9 AS INT), CAST('12' AS BIGINT), CAST(3 AS DOUBLE),
		CAST(42 AS VARCHAR), CAST('2020-05-05' AS DATE)`)
	checkCells(t, res, [][]string{{"2", "12", "3", "42", "2020-05-05"}})
	res = run(t, e, `SELECT n FROM nums WHERE d < '2020-07-01' ORDER BY n`)
	checkCells(t, res, [][]string{{"1"}, {"2"}})
	mustFail(t, e, `SELECT CAST('abc' AS INT)`, "cannot cast")
}

func TestScalarFunctions(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT ABS(-5), LENGTH('hello'), UPPER('ab'), LOWER('AB'),
		SUBSTR('hello', 2, 3), COALESCE(NULL, NULL, 7), NULLIF(3, 3), NULLIF(3, 4),
		GREATEST(1, 9, 4), LEAST(2, 8, 5), TRIM('  x  '), REPLACE('aaa', 'a', 'b'),
		FLOOR(2.7), CEIL(2.1), ROUND(2.5), SQRT(9.0)`)
	checkCells(t, res, [][]string{{
		"5", "5", "AB", "ab", "ell", "7", "NULL", "3", "9", "2", "x", "bbb",
		"2", "3", "3", "3",
	}})
	mustFail(t, e, `SELECT NO_SUCH_FUNC(1)`, "unknown function")
	mustFail(t, e, `SELECT SQRT(-1.0)`, "SQRT of negative")
}

func TestAggregates(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT COUNT(*), COUNT(n), COUNT(f), SUM(n), MIN(n), MAX(n), AVG(n) FROM nums`)
	checkCells(t, res, [][]string{{"4", "3", "3", "6", "1", "3", "2"}})
	// Aggregates over an empty input: COUNT 0, others NULL.
	res = run(t, e, `SELECT COUNT(*), SUM(n), MIN(s), AVG(f) FROM nums WHERE n > 100`)
	checkCells(t, res, [][]string{{"0", "NULL", "NULL", "NULL"}})
	res = run(t, e, `SELECT COUNT(DISTINCT dept_id) FROM emp`)
	checkCells(t, res, [][]string{{"2"}})
	res = run(t, e, `SELECT SUM(f) FROM nums`)
	checkCells(t, res, [][]string{{"8.5"}})
}

func TestGroupByHaving(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `
		SELECT d.name, COUNT(*) AS c, SUM(emp.salary) AS total
		FROM emp JOIN dept d ON emp.dept_id = d.id
		GROUP BY d.name
		ORDER BY total DESC`)
	checkCells(t, res, [][]string{{"eng", "2", "300"}, {"ops", "1", "150"}})
	res = run(t, e, `
		SELECT dept_id, COUNT(*) FROM emp
		GROUP BY dept_id
		HAVING COUNT(*) > 1`)
	checkCells(t, res, [][]string{{"1", "2"}})
	// Grouping by an expression, selecting the same expression.
	res = run(t, e, `SELECT n % 2, COUNT(*) FROM nums WHERE n IS NOT NULL GROUP BY n % 2 ORDER BY 1`)
	checkCells(t, res, [][]string{{"0", "1"}, {"1", "2"}})
	// NULL forms its own group.
	res = run(t, e, `SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id ORDER BY dept_id NULLS FIRST`)
	checkCells(t, res, [][]string{{"NULL", "1"}, {"1", "2"}, {"2", "1"}})
	mustFail(t, e, `SELECT salary, COUNT(*) FROM emp GROUP BY dept_id`, "GROUP BY")
	mustFail(t, e, `SELECT SUM(SUM(salary)) FROM emp`, "nested")
	mustFail(t, e, `SELECT n FROM nums HAVING n > 1`, "HAVING")
	mustFail(t, e, `SELECT n FROM nums WHERE SUM(n) > 1`, "not allowed")
}

func TestJoins(t *testing.T) {
	e := testEngine(t)
	// Inner join.
	res := run(t, e, `SELECT emp.id, d.name FROM emp JOIN dept d ON emp.dept_id = d.id ORDER BY emp.id`)
	checkCells(t, res, [][]string{{"10", "eng"}, {"11", "eng"}, {"12", "ops"}})
	// Left join keeps the NULL-dept employee.
	res = run(t, e, `SELECT emp.id, d.name FROM emp LEFT JOIN dept d ON emp.dept_id = d.id ORDER BY emp.id`)
	checkCells(t, res, [][]string{{"10", "eng"}, {"11", "eng"}, {"12", "ops"}, {"13", "NULL"}})
	// Cross join cardinality.
	res = run(t, e, `SELECT COUNT(*) FROM emp, dept`)
	checkCells(t, res, [][]string{{"12"}})
	// Comma join + WHERE equality is rewritten into a hash join.
	res = run(t, e, `SELECT COUNT(*) FROM emp, dept d WHERE emp.dept_id = d.id`)
	checkCells(t, res, [][]string{{"3"}})
	// Non-equi join condition.
	res = run(t, e, `SELECT COUNT(*) FROM emp JOIN dept d ON emp.salary > 100 AND d.id = 1`)
	checkCells(t, res, [][]string{{"2"}})
	// Left join with non-matching residual keeps all left rows.
	res = run(t, e, `SELECT COUNT(*) FROM emp LEFT JOIN dept d ON emp.dept_id = d.id AND d.name = 'nope'`)
	checkCells(t, res, [][]string{{"4"}})
}

func TestSelfJoinAliases(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT a.id, b.id FROM emp a, emp b WHERE a.salary < b.salary AND a.dept_id = b.dept_id`)
	checkCells(t, res, [][]string{{"10", "11"}})
	mustFail(t, e, `SELECT id FROM emp a, emp b`, "ambiguous")
}

func TestSubqueriesAndCTEs(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT t.c FROM (SELECT COUNT(*) AS c FROM emp) t`)
	checkCells(t, res, [][]string{{"4"}})
	res = run(t, e, `WITH rich AS (SELECT * FROM emp WHERE salary >= 150)
		SELECT COUNT(*) FROM rich`)
	checkCells(t, res, [][]string{{"2"}})
	// A CTE referenced twice (the Shared node caches it per query).
	res = run(t, e, `WITH rich AS (SELECT * FROM emp WHERE salary >= 150)
		SELECT COUNT(*) FROM rich a, rich b`)
	checkCells(t, res, [][]string{{"4"}})
	// CTE column aliases.
	res = run(t, e, `WITH v (x) AS (SELECT salary FROM emp WHERE id = 10) SELECT x + 1 FROM v`)
	checkCells(t, res, [][]string{{"101"}})
	// CTEs shadow base tables.
	res = run(t, e, `WITH emp AS (SELECT 1 AS only) SELECT COUNT(*) FROM emp`)
	checkCells(t, res, [][]string{{"1"}})
}

func TestSetOperations(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT 1 UNION SELECT 2 UNION SELECT 1 ORDER BY 1`)
	checkCells(t, res, [][]string{{"1"}, {"2"}})
	res = run(t, e, `SELECT 1 UNION ALL SELECT 1`)
	if res.NumRows() != 2 {
		t.Fatalf("UNION ALL rows = %d", res.NumRows())
	}
	res = run(t, e, `SELECT n FROM nums WHERE n IS NOT NULL EXCEPT SELECT 2 ORDER BY 1`)
	checkCells(t, res, [][]string{{"1"}, {"3"}})
	res = run(t, e, `SELECT n FROM nums INTERSECT SELECT 2`)
	checkCells(t, res, [][]string{{"2"}})
	// Kind promotion across operands.
	res = run(t, e, `SELECT 1 UNION SELECT 1.5 ORDER BY 1`)
	checkCells(t, res, [][]string{{"1"}, {"1.5"}})
	mustFail(t, e, `SELECT 1 UNION SELECT 1, 2`, "columns")
	mustFail(t, e, `SELECT 1 UNION SELECT 'x'`, "incompatible")
}

func TestDistinctOrderLimit(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT DISTINCT dept_id FROM emp ORDER BY dept_id NULLS FIRST`)
	checkCells(t, res, [][]string{{"NULL"}, {"1"}, {"2"}})
	res = run(t, e, `SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n DESC LIMIT 2`)
	checkCells(t, res, [][]string{{"3"}, {"2"}})
	res = run(t, e, `SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 1 OFFSET 1`)
	checkCells(t, res, [][]string{{"2"}})
	res = run(t, e, `SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 0`)
	if res.NumRows() != 0 {
		t.Fatal("LIMIT 0 must produce no rows")
	}
	// ORDER BY a non-projected column through a hidden sort column.
	res = run(t, e, `SELECT s FROM nums WHERE n IS NOT NULL ORDER BY n DESC`)
	checkCells(t, res, [][]string{{"three"}, {"two"}, {"one"}})
	if len(res.Schema) != 1 {
		t.Fatalf("hidden sort column leaked: %v", res.Schema)
	}
	mustFail(t, e, `SELECT DISTINCT s FROM nums ORDER BY n`, "DISTINCT")
}

func TestOrderByNullsPlacement(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT n FROM nums ORDER BY n`)
	checkCells(t, res, [][]string{{"1"}, {"2"}, {"3"}, {"NULL"}}) // default NULLS LAST asc
	res = run(t, e, `SELECT n FROM nums ORDER BY n DESC`)
	checkCells(t, res, [][]string{{"NULL"}, {"3"}, {"2"}, {"1"}}) // default NULLS FIRST desc
	res = run(t, e, `SELECT n FROM nums ORDER BY n DESC NULLS LAST`)
	checkCells(t, res, [][]string{{"3"}, {"2"}, {"1"}, {"NULL"}})
}

func TestInsertVariants(t *testing.T) {
	e := testEngine(t)
	run(t, e, `CREATE TABLE t2 (a BIGINT, b VARCHAR)`)
	run(t, e, `INSERT INTO t2 (b, a) VALUES ('x', 1)`)
	run(t, e, `INSERT INTO t2 (a) VALUES (2)`)
	run(t, e, `INSERT INTO t2 SELECT n, s FROM nums WHERE n = 3`)
	res := run(t, e, `SELECT a, b FROM t2 ORDER BY a`)
	checkCells(t, res, [][]string{{"1", "x"}, {"2", "NULL"}, {"3", "three"}})
	mustFail(t, e, `INSERT INTO t2 VALUES (1)`, "values")
	mustFail(t, e, `INSERT INTO t2 (zz) VALUES (1)`, "no column")
	mustFail(t, e, `INSERT INTO missing VALUES (1)`, "does not exist")
}

func TestDeleteAndDrop(t *testing.T) {
	e := testEngine(t)
	run(t, e, `DELETE FROM emp WHERE salary < 100`)
	res := run(t, e, `SELECT COUNT(*) FROM emp`)
	checkCells(t, res, [][]string{{"3"}})
	run(t, e, `DELETE FROM emp`)
	res = run(t, e, `SELECT COUNT(*) FROM emp`)
	checkCells(t, res, [][]string{{"0"}})
	run(t, e, `DROP TABLE emp`)
	mustFail(t, e, `SELECT * FROM emp`, "does not exist")
}

func TestParameters(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT n FROM nums WHERE n = ? OR s = ?`,
		types.NewInt(1), types.NewString("two"))
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	_, err := e.QueryCtx(context.Background(), `SELECT ? + ?`, types.NewInt(1))
	if err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Fatalf("expected parameter-count error, got %v", err)
	}
}

func TestStarVariants(t *testing.T) {
	e := testEngine(t)
	res := run(t, e, `SELECT d.*, emp.id FROM emp JOIN dept d ON emp.dept_id = d.id WHERE emp.id = 10`)
	checkCells(t, res, [][]string{{"1", "eng", "10"}})
	if res.Schema[0].Name != "id" || res.Schema[1].Name != "name" {
		t.Fatalf("schema = %v", res.Schema)
	}
	mustFail(t, e, `SELECT zz.* FROM emp`, "unknown table")
}

func TestExplain(t *testing.T) {
	e := testEngine(t)
	p, err := e.Explain(`SELECT COUNT(*) FROM emp, dept d WHERE emp.dept_id = d.id AND emp.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "Join") {
		t.Fatalf("plan should contain an upgraded join:\n%s", p)
	}
	if !strings.Contains(p, "Aggregate") {
		t.Fatalf("plan should contain an aggregate:\n%s", p)
	}
}

func TestBinderErrors(t *testing.T) {
	e := testEngine(t)
	mustFail(t, e, `SELECT zz FROM nums`, "not found")
	mustFail(t, e, `SELECT nums.zz FROM nums`, "not found")
	mustFail(t, e, `SELECT n FROM missing`, "does not exist")
	mustFail(t, e, `SELECT n + 'x' FROM nums`, "numeric")
	mustFail(t, e, `SELECT n FROM nums WHERE n`, "boolean")
	mustFail(t, e, `SELECT NOT n FROM nums`, "boolean")
	// VARCHAR coerces to DATE for the comparison; unparseable values
	// surface as a runtime error.
	mustFail(t, e, `SELECT n FROM nums WHERE s < d`, "invalid date")
	mustFail(t, e, `SELECT n FROM nums WHERE b < d`, "cannot compare")
	mustFail(t, e, `SELECT n FROM nums ORDER BY 99`, "out of range")
	mustFail(t, e, `SELECT 'a' % 'b'`, "numeric")
	mustFail(t, e, `SELECT 1.5 % 2`, "integer")
	mustFail(t, e, `SELECT n FROM nums LIMIT 'x'`, "LIMIT")
	mustFail(t, e, `SELECT n FROM nums LIMIT -1`, "LIMIT")
}

func TestGraphStatementsThroughEngine(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE edges (s VARCHAR, d VARCHAR, w BIGINT);
		INSERT INTO edges VALUES ('a','b',1), ('b','c',2), ('a','c',9);
	`); err != nil {
		t.Fatal(err)
	}
	// String vertex keys.
	res := run(t, e, `SELECT CHEAPEST SUM(x: w) WHERE 'a' REACHES 'c' OVER edges x EDGE (s, d)`)
	checkCells(t, res, [][]string{{"3"}})
	// Reachability only.
	res = run(t, e, `SELECT 1 WHERE 'c' REACHES 'a' OVER edges EDGE (s, d)`)
	if res.NumRows() != 0 {
		t.Fatal("c must not reach a")
	}
	// Reverse direction by swapping the EDGE attributes.
	res = run(t, e, `SELECT 1 WHERE 'c' REACHES 'a' OVER edges EDGE (d, s)`)
	if res.NumRows() != 1 {
		t.Fatal("c must reach a over the transposed graph")
	}
	// REACHES under OR is rejected.
	mustFail(t, e, `SELECT 1 WHERE 'a' REACHES 'c' OVER edges EDGE (s, d) OR TRUE`, "top-level")
	// CHEAPEST SUM without a predicate is rejected.
	mustFail(t, e, `SELECT CHEAPEST SUM(1) FROM edges`, "REACHES")
	// Unknown binding.
	mustFail(t, e, `SELECT CHEAPEST SUM(zz: 1) WHERE 'a' REACHES 'c' OVER edges x EDGE (s, d)`, "unknown edge-table")
	// Unknown edge attribute.
	mustFail(t, e, `SELECT 1 WHERE 'a' REACHES 'c' OVER edges EDGE (nope, d)`, "not found")
	// Non-numeric weight.
	mustFail(t, e, `SELECT CHEAPEST SUM(x: s) WHERE 'a' REACHES 'c' OVER edges x EDGE (s, d)`, "numeric")
}

func TestNullEdgeEndpointsAreIgnored(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE edges (s BIGINT, d BIGINT);
		INSERT INTO edges VALUES (1, 2), (NULL, 3), (2, NULL), (2, 3);
	`); err != nil {
		t.Fatal(err)
	}
	res := run(t, e, `SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER edges EDGE (s, d)`)
	checkCells(t, res, [][]string{{"2"}})
	// 3 appears only as a destination (and in a NULL-src row); it is
	// still a vertex via the non-NULL (2,3) edge.
	res = run(t, e, `SELECT 1 WHERE 3 REACHES 3 OVER edges EDGE (s, d)`)
	if res.NumRows() != 1 {
		t.Fatal("3 must be a vertex and reach itself")
	}
}

func TestConstantWeightUsesBFS(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE edges (s BIGINT, d BIGINT);
		INSERT INTO edges VALUES (1,2),(2,3),(3,4);
	`); err != nil {
		t.Fatal(err)
	}
	// Constant weight 5 per hop: cost = hops * 5.
	res := run(t, e, `SELECT CHEAPEST SUM(5) WHERE 1 REACHES 4 OVER edges EDGE (s, d)`)
	checkCells(t, res, [][]string{{"15"}})
	// Constant float weight.
	res = run(t, e, `SELECT CHEAPEST SUM(0.5) WHERE 1 REACHES 4 OVER edges EDGE (s, d)`)
	checkCells(t, res, [][]string{{"1.5"}})
}

func TestValuesRowMismatch(t *testing.T) {
	e := New()
	run(t, e, `CREATE TABLE t (a BIGINT)`)
	mustFail(t, e, `CREATE TABLE t (b BIGINT)`, "exists")
	_ = rows
}

// TestExecScriptStopsAtFailingStatement runs a four-statement script
// whose third statement fails to parse or to lex. The error is the one
// a whole-script parse reports, position included; the two statements
// before it stay applied and the fourth never runs.
func TestExecScriptStopsAtFailingStatement(t *testing.T) {
	const head = "CREATE TABLE t (a BIGINT);\nINSERT INTO t VALUES (1), (2);\n"
	cases := []struct{ third, wantErr string }{
		{"SELECT a FROM WHERE a > 1;", "parse error at line 3 col 15: expected table name, found WHERE"},
		{"SELECT 'oops FROM t;", "syntax error at line 5 col 1: unterminated string literal"},
	}
	for _, c := range cases {
		e := New()
		_, err := e.ExecScript(context.Background(), head+c.third+"\nINSERT INTO t VALUES (3);\n")
		if err == nil || err.Error() != c.wantErr {
			t.Fatalf("%q: error = %v, want %q", c.third, err, c.wantErr)
		}
		if got := run(t, e, "SELECT COUNT(*) FROM t").Cols[0].Get(0).I; got != 2 {
			t.Fatalf("%q: t has %d rows, want the 2 inserted before the failing statement", c.third, got)
		}
	}
}
