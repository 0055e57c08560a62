package engine

import (
	"context"
	"testing"
)

func subqueryEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE emp (id BIGINT, dept BIGINT, salary BIGINT);
		CREATE TABLE dept (id BIGINT, name VARCHAR);
		INSERT INTO emp VALUES (1, 10, 100), (2, 10, 200), (3, 20, 150), (4, NULL, 50);
		INSERT INTO dept VALUES (10, 'eng'), (20, 'ops'), (30, 'empty');
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInSubquerySemiJoin(t *testing.T) {
	e := subqueryEngine(t)
	res := run(t, e, `SELECT id FROM emp
		WHERE dept IN (SELECT id FROM dept WHERE name = 'eng')
		ORDER BY id`)
	checkCells(t, res, [][]string{{"1"}, {"2"}})
	// Duplicates on the right do not duplicate output rows.
	run(t, e, `INSERT INTO dept VALUES (10, 'eng2')`)
	res = run(t, e, `SELECT id FROM emp WHERE dept IN (SELECT id FROM dept) ORDER BY id`)
	checkCells(t, res, [][]string{{"1"}, {"2"}, {"3"}})
}

func TestNotInSubqueryAntiJoin(t *testing.T) {
	e := subqueryEngine(t)
	// NULL dept rows never qualify for NOT IN.
	res := run(t, e, `SELECT id FROM emp
		WHERE dept NOT IN (SELECT id FROM dept WHERE name = 'eng')
		ORDER BY id`)
	checkCells(t, res, [][]string{{"3"}})
}

func TestNotInSubqueryWithNullInResult(t *testing.T) {
	e := subqueryEngine(t)
	run(t, e, `CREATE TABLE vals (v BIGINT)`)
	run(t, e, `INSERT INTO vals VALUES (99), (NULL)`)
	// The NULL in the subquery makes x NOT IN (...) unknown for every
	// non-matching x: no rows.
	res := run(t, e, `SELECT id FROM emp WHERE dept NOT IN (SELECT v FROM vals)`)
	if res.NumRows() != 0 {
		t.Fatalf("NOT IN over a NULL-containing set must be empty:\n%s", res)
	}
	// Without the NULL it behaves as a plain anti join.
	run(t, e, `DELETE FROM vals WHERE v IS NULL`)
	res = run(t, e, `SELECT id FROM emp WHERE dept NOT IN (SELECT v FROM vals) ORDER BY id`)
	checkCells(t, res, [][]string{{"1"}, {"2"}, {"3"}})
}

func TestExistsAndNotExists(t *testing.T) {
	e := subqueryEngine(t)
	// Uncorrelated EXISTS: non-empty subquery keeps everything.
	res := run(t, e, `SELECT COUNT(*) FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE name = 'eng')`)
	checkCells(t, res, [][]string{{"4"}})
	res = run(t, e, `SELECT COUNT(*) FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE name = 'zzz')`)
	checkCells(t, res, [][]string{{"0"}})
	res = run(t, e, `SELECT COUNT(*) FROM emp WHERE NOT EXISTS (SELECT 1 FROM dept WHERE name = 'zzz')`)
	checkCells(t, res, [][]string{{"4"}})
}

func TestInSubqueryCombinesWithOtherConjuncts(t *testing.T) {
	e := subqueryEngine(t)
	res := run(t, e, `SELECT id FROM emp
		WHERE salary > 120 AND dept IN (SELECT id FROM dept)
		ORDER BY id`)
	checkCells(t, res, [][]string{{"2"}, {"3"}})
}

func TestInSubqueryWithReaches(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT);
		CREATE TABLE v (id BIGINT);
		CREATE TABLE allow (id BIGINT);
		INSERT INTO g VALUES (1,2),(2,3),(3,4);
		INSERT INTO v VALUES (2),(3),(4);
		INSERT INTO allow VALUES (2),(4);
	`); err != nil {
		t.Fatal(err)
	}
	// Subquery filter composed with the graph predicate in one block.
	res := run(t, e, `
		SELECT id, CHEAPEST SUM(1) AS hops
		FROM v
		WHERE id IN (SELECT id FROM allow)
		  AND 1 REACHES id OVER g EDGE (s, d)
		ORDER BY hops`)
	checkCells(t, res, [][]string{{"2", "1"}, {"4", "3"}})
}

func TestSubqueryErrors(t *testing.T) {
	e := subqueryEngine(t)
	mustFail(t, e, `SELECT id FROM emp WHERE dept IN (SELECT id, name FROM dept)`, "one column")
	mustFail(t, e, `SELECT dept IN (SELECT id FROM dept) FROM emp`, "top-level")
	mustFail(t, e, `SELECT id FROM emp WHERE dept IN (SELECT id FROM dept) OR TRUE`, "top-level")
	mustFail(t, e, `SELECT id FROM emp WHERE dept IN (SELECT name FROM dept)`, "compare")
	// Correlated subqueries are not supported: outer columns are
	// invisible inside.
	mustFail(t, e, `SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE dept.id = emp.dept)`, "not found")
}

func TestInSubqueryNumericPromotion(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE a (x BIGINT);
		CREATE TABLE b (y DOUBLE);
		INSERT INTO a VALUES (1), (2);
		INSERT INTO b VALUES (2.0), (3.5);
	`); err != nil {
		t.Fatal(err)
	}
	res := run(t, e, `SELECT x FROM a WHERE x IN (SELECT y FROM b)`)
	checkCells(t, res, [][]string{{"2"}})
}
