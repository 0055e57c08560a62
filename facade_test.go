package graphsql

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestArgumentConversions(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (i BIGINT, f DOUBLE, s VARCHAR, b BOOLEAN, d DATE)`)
	when := time.Date(2021, 7, 9, 0, 0, 0, 0, time.UTC)
	db.MustExec(`INSERT INTO t VALUES (?, ?, ?, ?, ?)`, int32(7), float32(1.5), "x", true, when)
	res, err := db.Query(`SELECT i, f, s, b, d FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0] != int64(7) || row[1] != 1.5 || row[2] != "x" || row[3] != true {
		t.Fatalf("row = %v", row)
	}
	if d, ok := row[4].(time.Time); !ok || !d.Equal(when) {
		t.Fatalf("date = %v", row[4])
	}
	// Unsupported argument type.
	if _, err := db.Query(`SELECT ?`, struct{}{}); err == nil {
		t.Fatal("struct argument must be rejected")
	}
	// NULL argument.
	res, err = db.Query(`SELECT ? IS NULL`, nil)
	if err != nil || res.Rows[0][0] != true {
		t.Fatalf("nil arg: %v %v", res, err)
	}
}

func TestResultString(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (a BIGINT, b VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'hello'), (2, NULL)`)
	res, err := db.Query(`SELECT a, b FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"a", "b", "hello", "NULL", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	if res.Len() != 2 {
		t.Fatalf("len = %d", res.Len())
	}
}

func TestQueryScalarErrors(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (a BIGINT)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2)`)
	if _, err := db.QueryScalar(`SELECT a FROM t`); err == nil {
		t.Fatal("two rows must fail QueryScalar")
	}
	if _, err := db.QueryScalar(`SELECT a, a FROM t LIMIT 1`); err == nil {
		t.Fatal("two columns must fail QueryScalar")
	}
	v, err := db.QueryScalar(`SELECT SUM(a) FROM t`)
	if err != nil || v != int64(3) {
		t.Fatalf("scalar = %v, %v", v, err)
	}
}

func TestExplainThroughFacade(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT)`)
	p, err := db.Explain(`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)`, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "GraphMatch") {
		t.Fatalf("plan missing GraphMatch:\n%s", p)
	}
}

func TestConcurrentReaders(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT)`)
	db.MustExec(`INSERT INTO e VALUES (1,2),(2,3),(3,4)`)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v, err := db.QueryScalar(
					`SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER e EDGE (s, d)`)
				if err != nil {
					errs <- err
					return
				}
				if v != int64(3) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPathClientValue(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT)`)
	db.MustExec(`INSERT INTO e VALUES (1,2),(2,3)`)
	res, err := db.Query(`SELECT CHEAPEST SUM(f: 1) AS (c, p)
		WHERE 1 REACHES 3 OVER e f EDGE (s, d)`)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res.Rows[0][1].(*Path)
	if !ok {
		t.Fatalf("path cell is %T", res.Rows[0][1])
	}
	if p.Len() != 2 || len(p.Columns) != 2 || p.Columns[0] != "s" {
		t.Fatalf("path = %+v", p)
	}
	if p.Rows[0][0] != int64(1) || p.Rows[1][1] != int64(3) {
		t.Fatalf("path rows = %v", p.Rows)
	}
	if !strings.Contains(p.String(), "(1, 2)") {
		t.Fatalf("path rendering = %q", p.String())
	}
	var nilPath *Path
	if nilPath.Len() != 0 || nilPath.String() != "[]" {
		t.Fatal("nil path helpers broken")
	}
}

func TestExecScriptReturnsLastResult(t *testing.T) {
	db := Open()
	res, err := db.ExecScript(context.Background(), `
		CREATE TABLE t (a BIGINT);
		INSERT INTO t VALUES (1), (2);
		SELECT SUM(a) FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(3) {
		t.Fatalf("script result = %v", res.Rows)
	}
}
