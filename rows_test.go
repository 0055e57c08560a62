package graphsql

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestQueryRowsBatches walks a result in small batches and checks the
// concatenation equals the buffered Query result.
func TestQueryRowsBatches(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (x BIGINT, s VARCHAR)`)
	for i := 0; i < 10; i++ {
		db.MustExec(`INSERT INTO t VALUES (?, ?)`, i, "v")
	}
	want, err := db.Query(`SELECT x, s FROM t ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryRows(context.Background(), QueryOptions{}, `SELECT x, s FROM t ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	// A SELECT executes as its cursor drains, so the total is unknown
	// (-1) until exhaustion.
	if n := rows.Len(); n != -1 || !reflect.DeepEqual(rows.Columns, want.Columns) {
		t.Fatalf("cursor shape: %d rows, columns %v", n, rows.Columns)
	}
	var got [][]any
	sizes := []int{}
	for {
		b, err := rows.NextBatch(3)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, len(b))
		got = append(got, b...)
	}
	if !reflect.DeepEqual(sizes, []int{3, 3, 3, 1}) {
		t.Fatalf("batch sizes %v", sizes)
	}
	if rows.Len() != 10 {
		t.Fatalf("exhausted cursor Len = %d, want 10", rows.Len())
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("cursor rows differ:\n%v\nvs\n%v", got, want.Rows)
	}
}

// TestQueryRowsNextChunk: NextChunk hands out the executor's batches
// as they come — bounded by BatchRows, ragged after a filter — and Cell
// reads each cell as Result.Rows holds it.
func TestQueryRowsNextChunk(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (x BIGINT, s VARCHAR)`)
	for i := 0; i < 10; i++ {
		db.MustExec(`INSERT INTO t VALUES (?, ?)`, i, "v")
	}
	const q = `SELECT x, s FROM t WHERE x % 3 <> 1`
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryRows(context.Background(), QueryOptions{BatchRows: 4}, q)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]any
	var sizes []int
	for {
		c, err := rows.NextChunk()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		sizes = append(sizes, c.NumRows())
		for i := range c.NumRows() {
			got = append(got, []any{Cell(c.Cols[0], i), Cell(c.Cols[1], i)})
		}
	}
	// Scan batches 0-3, 4-7, 8-9 keep 0,2,3 | 5,6 | 8,9.
	if !reflect.DeepEqual(sizes, []int{3, 2, 2}) || rows.Len() != 7 {
		t.Fatalf("batch sizes %v, total %d; want [3 2 2] and 7", sizes, rows.Len())
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("chunk rows differ:\n%v\nvs\n%v", got, want.Rows)
	}
}

// TestQueryRowsSnapshotIsolation: a cursor taken before writes must
// keep serving the rows it saw — INSERT appends beyond the snapshot,
// DELETE swaps columns underneath it — while new queries see the new
// data.
func TestQueryRowsSnapshotIsolation(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (x BIGINT)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	rows, err := db.QueryRows(context.Background(), QueryOptions{}, `SELECT x FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate after the cursor exists but before it is drained.
	db.MustExec(`INSERT INTO t VALUES (4)`)
	db.MustExec(`DELETE FROM t WHERE x = 2`)
	var got []int64
	for {
		b, err := rows.NextBatch(2)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, r := range b {
			got = append(got, r[0].(int64))
		}
	}
	if !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("snapshot leaked writes: %v", got)
	}
	// A fresh query sees the post-write state.
	res, err := db.Query(`SELECT x FROM t ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].(int64) != 1 || res.Rows[1][0].(int64) != 3 || res.Rows[2][0].(int64) != 4 {
		t.Fatalf("post-write state wrong: %v", res.Rows)
	}
}

// TestQueryRowsCancelBetweenBatches: the cursor honors its context.
func TestQueryRowsCancelBetweenBatches(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (x BIGINT)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3), (4)`)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryRows(ctx, QueryOptions{}, `SELECT x FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.NextBatch(2); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := rows.NextBatch(2); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// TestQueryRowsNonSelect: DDL through the cursor API yields an empty
// result, not an error.
func TestQueryRowsNonSelect(t *testing.T) {
	db := Open()
	rows, err := db.QueryRows(context.Background(), QueryOptions{}, `CREATE TABLE t (x BIGINT)`)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := rows.NextBatch(10); err != nil || b != nil {
		t.Fatalf("DDL cursor batch: %v, %v", b, err)
	}
	// One cursor form: like any result, the total is known once drained.
	if rows.Len() != 0 {
		t.Fatalf("drained DDL cursor has %d rows", rows.Len())
	}
}

// TestSessionQueryRowsAndPrepare covers the session-side cursor and
// explicit Prepare metadata.
func TestSessionQueryRowsAndPrepare(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (x BIGINT)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	s := db.Session()
	info, err := s.Prepare(`SELECT x FROM t WHERE x >= ? ORDER BY x`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumParams != 1 || !info.IsSelect {
		t.Fatalf("unexpected StmtInfo: %+v", info)
	}
	if _, err := s.Prepare(`SELEKT`); err == nil {
		t.Fatal("bad statement prepared")
	}
	rows, err := s.QueryRows(context.Background(), QueryOptions{}, `SELECT x FROM t WHERE x >= ? ORDER BY x`, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rows.NextBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 || b[0][0].(int64) != 2 || b[1][0].(int64) != 3 {
		t.Fatalf("session cursor rows: %v", b)
	}
	// DataVersion moves with writes and not with reads.
	v := db.DataVersion()
	if _, err := db.Query(`SELECT COUNT(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	if db.DataVersion() != v {
		t.Fatal("SELECT moved DataVersion")
	}
	db.MustExec(`INSERT INTO t VALUES (9)`)
	if db.DataVersion() == v {
		t.Fatal("INSERT did not move DataVersion")
	}
}
