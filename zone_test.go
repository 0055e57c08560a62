package graphsql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"graphsql/internal/testutil"
)

// A range over seq reads only the windows whose zones can hold it; the
// same range under OR FALSE gives the scan no bound and reads them all,
// which makes it the reference the pruned answer is held to.
const (
	prunedRange   = `SELECT seq, v FROM t WHERE seq >= ? AND seq < ?`
	unprunedRange = `SELECT seq, v FROM t WHERE (seq >= ? AND seq < ?) OR 1 = 0`
)

// insertSeq inserts rows seq = from..to-1 (v = seq / 2) with one
// INSERT … VALUES statement.
func insertSeq(t *testing.T, db *DB, from, to int) {
	t.Helper()
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := from; i < to; i++ {
		if i > from {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %g)", i, float64(i)/2)
	}
	db.MustExec(b.String())
}

// checkRanges runs 128-row ranges from lo up to hi in steps of step,
// pruned and unpruned, and requires the same answer; pruning must have
// fired on at least one of them.
func checkRanges(t *testing.T, db *DB, label string, lo, hi, step int) {
	t.Helper()
	skipped := false
	for from := lo; from < hi; from += step {
		want, err := db.Query(unprunedRange, from, from+128)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := db.Query(prunedRange, from, from+128)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: seq in [%d, %d): pruned scan answered\n%s\nwant\n%s", label, from, from+128, got, want)
		}
		plan, err := db.Query("EXPLAIN ANALYZE "+prunedRange, from, from+128)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		skipped = skipped || strings.Contains(planText(t, plan), "windows=")
	}
	if !skipped {
		t.Fatalf("%s: no range skipped a window; the check is vacuous", label)
	}
}

// TestEveryWriterKeepsZonesHonest runs pruned ranges after each kind
// of write — appends that seal windows, INSERT … SELECT, LoadCSV,
// direct column appends, DELETE with and without WHERE, DROP and
// CREATE — against the unpruned answer.
func TestEveryWriterKeepsZonesHonest(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (seq BIGINT, v DOUBLE)`)
	insertSeq(t, db, 0, 2048)
	checkRanges(t, db, "initial", -200, 2300, 300)

	// The rows of one statement cross the seal at 3,072.
	insertSeq(t, db, 2048, 3100)
	checkRanges(t, db, "INSERT VALUES", 1900, 3300, 150)

	db.MustExec(`INSERT INTO t SELECT seq + 5000, v FROM t WHERE seq < 1500`)
	checkRanges(t, db, "INSERT SELECT", 4800, 6600, 250)

	var csv strings.Builder
	csv.WriteString("seq,v\n")
	for i := 8000; i < 9100; i++ {
		fmt.Fprintf(&csv, "%d,%g\n", i, float64(i)/2)
	}
	if _, err := db.LoadCSV("t", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	checkRanges(t, db, "LoadCSV", 7900, 9200, 200)

	// As ldbc.Load fills a table: straight into the columns.
	tbl, _ := db.Engine().Catalog().Table("t")
	for i := 12000; i < 13100; i++ {
		tbl.Cols[0].AppendInt(int64(i))
		tbl.Cols[1].AppendFloat(float64(i) / 2)
	}
	checkRanges(t, db, "direct appends", 11900, 13200, 200)

	// The last range read only the windows holding seq 12,000 and up;
	// deleting rows in front of them moves later rows into windows
	// whose old zones would have excluded them.
	db.MustExec(`DELETE FROM t WHERE seq < 700`)
	checkRanges(t, db, "DELETE WHERE", 600, 2000, 100)

	db.MustExec(`DELETE FROM t`)
	insertSeq(t, db, 20000, 22100)
	checkRanges(t, db, "DELETE", 19900, 22200, 300)

	db.MustExec(`DROP TABLE t`)
	db.MustExec(`CREATE TABLE t (seq BIGINT, v DOUBLE)`)
	insertSeq(t, db, 0, 2100)
	checkRanges(t, db, "DROP and CREATE", -100, 2200, 300)
}

// TestPrunedScansRaceWriters runs pruned range scans beside INSERTs
// that keep sealing new windows. seq is the row position, so a scan
// that saw the table at size n answers seq in [lo, min(hi, n)) in
// order, and n is a size some INSERT left the table at.
func TestPrunedScansRaceWriters(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const (
		initial = 3000
		step    = 300
		inserts = 20
		readers = 4
	)
	db := Open(WithParallelism(2))
	db.MustExec(`CREATE TABLE t (seq BIGINT, v DOUBLE)`)
	insertSeq(t, db, 0, initial)
	final := initial + inserts*step
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < inserts; k++ {
			if err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("insert: %v", r)
					}
				}()
				insertSeq(t, db, initial+k*step, initial+(k+1)*step)
				return nil
			}(); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 60; it++ {
				lo := (g*997 + it*613) % final
				hi := lo + 128 + it%3*1000
				res, err := db.Query(prunedRange, lo, hi)
				if err != nil {
					errs <- err
					return
				}
				if err := checkSnapshot(res, lo, hi, initial, step); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// checkSnapshot checks a range answer against the table as some
// snapshot held it: seq lo, lo+1, … up to hi or to a size the writer
// left the table at, each with v = seq / 2.
func checkSnapshot(res *Result, lo, hi, initial, step int) error {
	for i, row := range res.Rows {
		if row[0] != int64(lo+i) || row[1] != float64(lo+i)/2 {
			return fmt.Errorf("seq in [%d, %d): row %d is %v", lo, hi, i, row)
		}
	}
	end := lo + len(res.Rows)
	if end < min(hi, initial) {
		return fmt.Errorf("seq in [%d, %d): answer stops at %d, before the initial %d rows end", lo, hi, end, initial)
	}
	// An empty answer fits every snapshot that ends at or before lo.
	if len(res.Rows) > 0 && end < hi && end > initial && (end-initial)%step != 0 {
		return fmt.Errorf("seq in [%d, %d): answer stops at %d, which no snapshot ends at", lo, hi, end)
	}
	return nil
}

// BenchmarkRangeScan is the filter-only form of the Fig 1b batch
// statement: a 128-row seq range of 65,536 sorted rows, run as gsqld
// runs a statement below HTTP (a session's cached plan, the result
// drained as executor chunks) with the range moving every iteration.
func BenchmarkRangeScan(b *testing.B) {
	const rows = 64 * 1024
	db := Open(WithParallelism(1))
	db.MustExec(`CREATE TABLE pairs (seq BIGINT, src BIGINT, dst BIGINT)`)
	for from := 0; from < rows; from += 1024 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO pairs VALUES ")
		for i := from; i < from+1024; i++ {
			if i > from {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d)", i, i*7%rows, i*13%rows)
		}
		db.MustExec(sb.String())
	}
	const q = `SELECT p.src, p.dst FROM pairs p WHERE p.seq >= ? AND p.seq < ?`
	s := db.Session()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * 128 % rows
		res, err := s.QueryRows(ctx, QueryOptions{}, q, lo, lo+128)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			c, err := res.NextChunk()
			if err != nil {
				b.Fatal(err)
			}
			if c == nil {
				break
			}
			n += c.NumRows()
		}
		if n != 128 {
			b.Fatalf("rows = %d, want 128", n)
		}
	}
}
