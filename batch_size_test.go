package graphsql

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestBatchSizeDecidesOnlyWhichErrorAFailureReports pins down what the
// batch size does and does not decide. The table has 20 rows and z = 0
// only at row 15, so a / z fails there, and CAST('x' AS BIGINT) fails
// on every row. A kernel reports the first error of the batch it runs
// over, so the batch boundaries decide which operand's error a failing
// statement reports, and whether a LIMIT fills up before the batch that
// holds the failing row. They never turn a failing statement into one
// that succeeds with other rows, nor change the rows of one that
// succeeds.
func TestBatchSizeDecidesOnlyWhichErrorAFailureReports(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (a BIGINT, z BIGINT)`)
	var vals []string
	for a := 0; a < 20; a++ {
		z := 1
		if a == 15 {
			z = 0
		}
		vals = append(vals, fmt.Sprintf("(%d, %d)", a, z))
	}
	db.MustExec(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))

	run := func(batch int, sql string) (*Result, error) {
		rows, err := db.QueryRows(context.Background(), QueryOptions{BatchRows: batch}, sql)
		if err != nil {
			return nil, err
		}
		return rows.Result()
	}
	failing := []string{
		`SELECT a FROM t WHERE a / z >= 0 AND a < CAST('x' AS BIGINT)`,
		`SELECT a / z, CAST('x' AS BIGINT) FROM t`,
	}
	const limited = `SELECT a FROM t WHERE a / z >= 0 LIMIT 3`
	want := [][]any{{int64(0)}, {int64(1)}, {int64(2)}}
	for _, batch := range []int{1, 7, 0} {
		for _, sql := range failing {
			if res, err := run(batch, sql); err == nil {
				t.Errorf("batch %d: %s returned %d rows; want an error", batch, sql, res.Len())
			} else if msg := err.Error(); !strings.Contains(msg, "division by zero") && !strings.Contains(msg, "cannot cast") {
				t.Errorf("batch %d: %s failed with %q; want division by zero or a cast error", batch, sql, msg)
			}
		}
		res, err := run(batch, limited)
		if err != nil {
			t.Logf("batch %d: %s: %v (the LIMIT did not fill before the batch holding row 15)", batch, limited, err)
			continue
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("batch %d: %s = %v, want %v", batch, limited, res.Rows, want)
		}
	}
}
