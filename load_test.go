package graphsql

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"graphsql/internal/ldbc"
	"graphsql/internal/types"
)

// ldbcScript renders a dataset the way gsqld's benchmark loads it:
// persons and friends in INSERTs of 1,000 rows, friendship dates as
// DATE literals and weights with 4 decimals.
func ldbcScript(ds *ldbc.Dataset) string {
	var b strings.Builder
	inserts := func(table string, n int, row func(i int)) {
		for i := 0; i < n; i++ {
			switch {
			case i%1000 == 0:
				if i > 0 {
					b.WriteString(";\n")
				}
				b.WriteString("INSERT INTO " + table + " VALUES (")
			default:
				b.WriteString(",(")
			}
			row(i)
			b.WriteByte(')')
		}
		b.WriteString(";\n")
	}
	b.WriteString("CREATE TABLE persons (id BIGINT, firstName VARCHAR, lastName VARCHAR);\n")
	inserts("persons", len(ds.PersonIDs), func(i int) {
		b.WriteString(strconv.FormatInt(ds.PersonIDs[i], 10))
		b.WriteString(",'" + ds.FirstNames[i] + "','" + ds.LastNames[i] + "'")
	})
	b.WriteString("CREATE TABLE friends (src BIGINT, dst BIGINT, creationDate DATE, weight DOUBLE, iweight BIGINT);\n")
	inserts("friends", len(ds.Src), func(i int) {
		b.WriteString(strconv.FormatInt(ds.Src[i], 10) + "," + strconv.FormatInt(ds.Dst[i], 10))
		b.WriteString(",DATE '" + types.FormatDate(ds.CreationDays[i]) + "',")
		b.WriteString(strconv.FormatFloat(ds.Weight[i], 'f', 4, 64) + "," + strconv.FormatInt(ds.IWeight[i], 10))
	})
	return b.String()
}

// BenchmarkLoadScript loads the LDBC SF1 (seed 42) persons and friends
// script into a fresh DB per iteration, the work behind a gsqld graph
// load. CI runs it once (-benchtime 1x) so it keeps compiling and
// loading.
func BenchmarkLoadScript(b *testing.B) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	script := ldbcScript(ds)
	b.SetBytes(int64(len(script)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		db := Open()
		if _, err := db.ExecScript(context.Background(), script); err != nil {
			b.Fatal(err)
		}
		if tables, rows := db.TableStats(); tables != 2 || rows != len(ds.PersonIDs)+len(ds.Src) {
			b.Fatalf("loaded %d tables, %d rows", tables, rows)
		}
	}
}

// TestLoadedTablesOwnTheirStrings: no string a script inserts points
// into the script, whichever path inserted it (literal rows, bound
// rows, INSERT … SELECT), so a loaded table does not keep its script
// alive.
func TestLoadedTablesOwnTheirStrings(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	script := ldbcScript(ds) + `
		INSERT INTO persons VALUES (1, ('bound'), 'x' || 'y'), (2, '', 'it''s');
		CREATE TABLE names (name VARCHAR, tag VARCHAR);
		INSERT INTO names SELECT firstName, 'selected' FROM persons;`
	db := Open()
	if _, err := db.ExecScript(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(script)))
	hi := lo + uintptr(len(script))
	cells := 0
	for _, name := range db.Tables() {
		tbl, _ := db.Engine().Catalog().Table(name)
		for _, col := range tbl.Cols {
			for i, s := range col.Strs {
				if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
					t.Fatalf("%s row %d: %q points into the script", name, i, s)
				}
				cells++
			}
		}
	}
	if want := 4 * (len(ds.PersonIDs) + 2); cells != want { // persons, then names
		t.Fatalf("checked %d string cells, want %d", cells, want)
	}
}
