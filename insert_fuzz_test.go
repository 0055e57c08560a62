package graphsql

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// insertKinds are the column types FuzzInsertValues declares.
var insertKinds = []string{"BIGINT", "DOUBLE", "VARCHAR", "BOOLEAN", "DATE"}

// insertCells are the cells FuzzInsertValues draws VALUES rows from:
// literals the parser keeps as cells (int64 edges, exponents, strings
// that do and do not cast, dates valid and not, ?), and expressions,
// which put their row on the bind path.
var insertCells = []string{
	"NULL", "0", "-0", "1", "+7", "-1", "2", "-2.5", "2.5", "-0.0",
	"9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809",
	"1e3", "-2.5e-3", "1E400", ".5", "1.",
	"'x'", "''", "'12'", "' 7 '", "'2.5'", "'1e2'",
	"'2020-02-29'", "'2021-02-29'", "' 2020-01-01 '", "'2020-1-1'",
	"'true'", "'F'", "'it''s'",
	"TRUE", "FALSE",
	"DATE '2020-01-31'", "DATE '2020-13-01'", "DATE '1969-12-31'", "DATE 'soon'",
	"?", "?",
	"1 + 1", "-(2)", "'a' || 'b'", "CAST('3' AS BIGINT)", "1 / 0", "NOT TRUE",
}

// insertArgs are the arguments a fuzzed statement may be run with.
var insertArgs = []any{int64(5), "2020-01-01", 2.5, nil, true, "nope"}

// FuzzInsertValues inserts one drawn VALUES list two ways: as written,
// where every row of literals takes the parser's literal cells, and
// with every cell in parentheses, which binds and evaluates each one.
// The table contents, so the rows appended before an error, the error
// text and whether the script goes on past the statement must match.
// Each list runs with drawn arguments (Exec) and with none
// (ExecScript, where a ? has no value). The drawn rows, as strings,
// also go in through INSERT … SELECT from a VARCHAR table, whose
// column-wise cast must fail where the same rows inserted as VALUES
// fail.
func FuzzInsertValues(f *testing.F) {
	for _, c := range []struct {
		kinds []string
		cols  int // 0: no column list, 1: every column last first, 2: the last only
		rows  [][]string
		args  int // how many of insertArgs, in order
	}{
		{[]string{"BIGINT", "DOUBLE"}, 0, [][]string{
			{"NULL", "NULL"}, {"9223372036854775807", "9223372036854775808"},
			{"-9223372036854775808", "-9223372036854775809"}, {"2", "1e3"}, {"+7", "-2.5e-3"},
		}, 0},
		{[]string{"DOUBLE", "BIGINT"}, 0, [][]string{{"-0", "2.5"}, {".5", "-2.5"}, {"1E400", "0"}}, 0},
		// Two rows fail in different columns: the insert stops at the
		// first of them, as INSERT … SELECT of the same rows must,
		// whichever column it casts first.
		{[]string{"BIGINT", "DATE"}, 0, [][]string{
			{"'12'", "'2020-02-29'"}, {"2", "'2021-02-29'"}, {"'x'", "DATE '2020-01-31'"},
		}, 0},
		{[]string{"BIGINT", "DATE"}, 0, [][]string{
			{"'12'", "'2020-02-29'"}, {"'x'", "'2020-02-29'"}, {"2", "'2021-02-29'"},
		}, 0},
		{[]string{"DATE", "VARCHAR", "BOOLEAN"}, 1, [][]string{
			{"TRUE", "''", "' 2020-01-01 '"}, {"'F'", "'it''s'", "DATE '1969-12-31'"},
			{"'true'", "1 + 1", "DATE '2020-13-01'"},
		}, 0},
		// ? with too few arguments, after a bound one.
		{[]string{"BIGINT", "VARCHAR"}, 0, [][]string{{"?", "?"}, {"-1", "'x'"}, {"?", "''"}}, 2},
		// Arity errors, before and after mixed literal and expression rows.
		{[]string{"BIGINT", "BIGINT"}, 0, [][]string{{"1", "2"}, {"-(2)", "+7"}, {"0", "-1", "2"}}, 0},
		{[]string{"BIGINT", "BIGINT"}, 0, [][]string{{"1", "CAST('3' AS BIGINT)"}, {"+7"}, {"1 / 0", "2"}}, 0},
		{[]string{"VARCHAR", "DOUBLE"}, 2, [][]string{{"2"}, {"'2.5'"}, {"DATE 'soon'"}}, 3},
	} {
		f.Add(valuesSeed(c.kinds, c.cols, c.rows, c.args))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &csvPicker{data: data}
		v := drawValues(p)
		args := make([]any, p.intn(4))
		for i := range args {
			args[i] = insertArgs[p.intn(len(insertArgs))]
		}
		literal, bound := v.insert(""), v.insert("()")
		a, b := v.run(t, literal, args), v.run(t, bound, args)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("with %d args\n%s\n  → %v\n%s\n  → %v", len(args), literal, a, bound, b)
		}
		a, b = v.script(t, literal), v.script(t, bound)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("as a script\n%s\n  → %v\n%s\n  → %v", literal, a, bound, b)
		}
		a, b = v.viaSelect(t), v.run(t, v.asStrings().insert(""), nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("INSERT … SELECT of\n%s\n  → %v\nas VALUES → %v", v.asStrings().insert(""), a, b)
		}
	})
}

// drawnValues is one drawn table and VALUES list.
type drawnValues struct {
	kinds []string   // the table's column types
	cols  []string   // the INSERT's column list; nil for none
	rows  [][]string // cells, some rows of the wrong arity
}

func drawValues(p *csvPicker) *drawnValues {
	v := &drawnValues{kinds: make([]string, 1+p.intn(3))}
	for j := range v.kinds {
		v.kinds[j] = insertKinds[p.intn(len(insertKinds))]
	}
	width := len(v.kinds)
	switch p.intn(3) {
	case 1: // every column, last first
		for j := len(v.kinds) - 1; j >= 0; j-- {
			v.cols = append(v.cols, fmt.Sprintf("c%d", j))
		}
	case 2: // the last column only; the others are NULL
		v.cols, width = []string{fmt.Sprintf("c%d", len(v.kinds)-1)}, 1
	}
	v.rows = make([][]string, 1+p.intn(6))
	for r := range v.rows {
		n := width
		if p.intn(10) == 9 {
			n += 1 - 2*p.intn(2)
		}
		for range max(n, 1) {
			v.rows[r] = append(v.rows[r], insertCells[p.intn(len(insertCells))])
		}
	}
	return v
}

// valuesSeed is the input drawValues reads as the given table, column
// list mode and rows, followed by the count of arguments.
func valuesSeed(kinds []string, cols int, rows [][]string, args int) []byte {
	b := []byte{byte(len(kinds) - 1)}
	for _, k := range kinds {
		b = append(b, byte(slices.Index(insertKinds, k)))
	}
	width := len(kinds)
	if cols == 2 {
		width = 1
	}
	b = append(b, byte(cols), byte(len(rows)-1))
	for _, row := range rows {
		switch len(row) {
		case width:
			b = append(b, 0)
		case width + 1:
			b = append(b, 9, 0)
		default:
			b = append(b, 9, 1)
		}
		for _, c := range row {
			i := slices.Index(insertCells, c)
			if i < 0 {
				panic("no cell " + c)
			}
			b = append(b, byte(i))
		}
	}
	b = append(b, byte(args))
	for i := range args {
		b = append(b, byte(i))
	}
	return b
}

// insert renders the INSERT; wrap "()" puts every cell in parentheses.
func (v *drawnValues) insert(wrap string) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t")
	if v.cols != nil {
		b.WriteString(" (" + strings.Join(v.cols, ", ") + ")")
	}
	b.WriteString(" VALUES ")
	for r, row := range v.rows {
		if r > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for i, c := range row {
			if i > 0 {
				b.WriteString(", ")
			}
			if wrap != "" {
				c = "(" + c + ")"
			}
			b.WriteString(c)
		}
		b.WriteByte(')')
	}
	return b.String()
}

func (v *drawnValues) create(db *DB, table, kind string) {
	defs := make([]string, len(v.kinds))
	for j, k := range v.kinds {
		if kind != "" {
			k = kind
		}
		defs[j] = fmt.Sprintf("c%d %s", j, k)
	}
	db.MustExec("CREATE TABLE " + table + " (" + strings.Join(defs, ", ") + ")")
}

// outcome is what an insert left behind.
type outcome struct {
	err  string
	rows [][]any
	next bool // the script went on to the next statement
}

func (v *drawnValues) run(t *testing.T, sql string, args []any) outcome {
	db := Open()
	v.create(db, "t", "")
	var o outcome
	if err := db.Exec(sql, args...); err != nil {
		o.err = err.Error()
	}
	o.rows = v.contents(t, db)
	return o
}

func (v *drawnValues) script(t *testing.T, sql string) outcome {
	db := Open()
	v.create(db, "t", "")
	var o outcome
	if _, err := db.ExecScript(context.Background(), sql+"; CREATE TABLE next (x BIGINT)"); err != nil {
		o.err = err.Error()
	}
	o.rows = v.contents(t, db)
	o.next = len(db.Tables()) == 2
	return o
}

// asStrings is v with rows of the insert's width whose cells are all
// strings (or NULL): each other cell as a quoted string.
func (v *drawnValues) asStrings() *drawnValues {
	width := len(v.kinds)
	if v.cols != nil {
		width = len(v.cols)
	}
	s := &drawnValues{kinds: v.kinds, cols: v.cols, rows: make([][]string, len(v.rows))}
	for r, row := range v.rows {
		for i := range width {
			c := "NULL"
			if i < len(row) {
				c = row[i]
			}
			if c != "NULL" && !strings.HasPrefix(c, "'") {
				c = "'" + strings.ReplaceAll(c, "'", "''") + "'"
			}
			s.rows[r] = append(s.rows[r], c)
		}
	}
	return s
}

// viaSelect inserts the string rows of v through a VARCHAR table and
// INSERT … SELECT.
func (v *drawnValues) viaSelect(t *testing.T) outcome {
	s := v.asStrings()
	db := Open()
	v.create(db, "t", "")
	width := len(s.rows[0])
	src := &drawnValues{kinds: make([]string, width), rows: s.rows}
	src.create(db, "src", "VARCHAR")
	db.MustExec(strings.Replace(src.insert(""), "INSERT INTO t", "INSERT INTO src", 1))
	sel := "INSERT INTO t"
	if v.cols != nil {
		sel += " (" + strings.Join(v.cols, ", ") + ")"
	}
	var o outcome
	if err := db.Exec(sel + " SELECT * FROM src"); err != nil {
		o.err = err.Error()
	}
	o.rows = v.contents(t, db)
	return o
}

func (v *drawnValues) contents(t *testing.T, db *DB) [][]any {
	res, err := db.Query("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}
