package graphsql

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// csvKinds declares a table with a column of every kind LoadCSV loads.
const csvKinds = `(i BIGINT, f DOUBLE, s VARCHAR, d DATE, b BOOLEAN)`

// FuzzLoadCSV checks the CSV loader two ways from one input.
//
//   - The input's bytes, loaded into a table of every loadable kind,
//     never panic the loader. An error names its CSV row, and the rows
//     before it stay loaded, as many as LoadCSV reports.
//   - The input also drives a random table of BIGINT, DOUBLE (NaN and
//     ±Inf included), VARCHAR (commas, quotes, newlines, spaces), DATE
//     and BOOLEAN cells with NULLs among them. DumpCSV of it, loaded
//     into an empty twin, reads back the same rows, except that an
//     empty or all-space VARCHAR loads as NULL, as every empty cell
//     does, and a "\r\n" inside a VARCHAR loads as "\n", as
//     encoding/csv reads it.
func FuzzLoadCSV(f *testing.F) {
	for _, s := range []string{
		"i,f,s,d,b\n1,2.5,x,2020-01-02,true\n-9,NaN,,1969-12-31,F\n",
		"s,i\n\"a,\"\"b\"\"\nc\",-7\n  ,\n",
		"i\n1\nx\n",
		"i,f\n1\n",
		"\"i\n",
		"nope\n1\n",
		"",
		"b,d\nT,1999-13-01\n",
		"f\n+Inf\n-Inf\n-0\n1e400\n",
		"d,s\n0001-01-01,\"\n\"\n9999-12-31,\"a\"b\n",
		"s\n\"x\r\ny\"\n\"\r\"\na\rb\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		loadArbitraryCSV(t, data)
		roundTripCSV(t, &csvPicker{data: data})
	})
}

func loadArbitraryCSV(t *testing.T, data []byte) {
	db := Open()
	db.MustExec(`CREATE TABLE t ` + csvKinds)
	n, err := db.LoadCSV("t", bytes.NewReader(data))
	if err != nil && !strings.Contains(err.Error(), "CSV row ") {
		t.Fatalf("error names no CSV row: %v\ninput: %q", err, data)
	}
	got, qerr := db.QueryScalar(`SELECT COUNT(*) FROM t`)
	if qerr != nil || got != int64(n) {
		t.Fatalf("LoadCSV reported %d rows (err %v), the table holds %v (%v)\ninput: %q", n, err, got, qerr, data)
	}
}

func roundTripCSV(t *testing.T, p *csvPicker) {
	db := Open()
	db.MustExec(`CREATE TABLE src (id BIGINT, ` + csvKinds[1:])
	db.MustExec(`CREATE TABLE dst (id BIGINT, ` + csvKinds[1:])
	nrows := p.intn(40)
	var want [][]any
	var args []any
	var tuples []string
	for id := 0; id < nrows; id++ {
		row := []any{int64(id), p.bigint(), p.double(), p.varchar(), p.date(), p.boolean()}
		args = append(args, row...)
		tuples = append(tuples, "(?, ?, ?, ?, ?, ?)")
		if s, ok := row[3].(string); ok {
			row[3] = strings.ReplaceAll(s, "\r\n", "\n")
			if strings.TrimSpace(s) == "" {
				row[3] = nil
			}
		}
		want = append(want, row)
	}
	if nrows > 0 {
		db.MustExec(`INSERT INTO src VALUES `+strings.Join(tuples, ", "), args...)
	}
	var buf bytes.Buffer
	if err := db.DumpCSV(&buf, `SELECT * FROM src`); err != nil {
		t.Fatal(err)
	}
	dumped := buf.String()
	if n, err := db.LoadCSV("dst", &buf); err != nil || n != nrows {
		t.Fatalf("LoadCSV = %d, %v; want %d rows\ncsv: %q", n, err, nrows, dumped)
	}
	res, err := db.Query(`SELECT * FROM dst ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range res.Rows {
		for c, v := range row {
			if !sameCell(v, want[r][c]) {
				t.Fatalf("row %d column %s = %#v, want %#v\ncsv: %q", r, res.Columns[c], v, want[r][c], dumped)
			}
		}
	}
}

// sameCell compares result cells, with every NaN equal and -0 apart
// from 0.
func sameCell(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y))
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	}
	return a == b
}

// csvPicker draws the round-trip table's cells from fuzz input; an
// exhausted input picks zeros.
type csvPicker struct{ data []byte }

func (p *csvPicker) byte() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

func (p *csvPicker) intn(n int) int { return int(p.byte()) % n }

func (p *csvPicker) bits() uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(p.byte())
	}
	return u
}

func (p *csvPicker) bigint() any {
	switch p.intn(6) {
	case 0:
		return nil
	case 1:
		return int64(math.MinInt64)
	case 2:
		return int64(math.MaxInt64)
	}
	return int64(p.bits())
}

func (p *csvPicker) double() any {
	switch p.intn(8) {
	case 0:
		return nil
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return float64(int64(p.bits())%2000) / 8
	}
	return math.Float64frombits(p.bits())
}

// varchar draws from an alphabet of what CSV must quote or could trim,
// carriage returns included: a lone one round-trips, and "\r\n" reads
// back as "\n".
func (p *csvPicker) varchar() any {
	n := p.intn(9)
	if n == 8 {
		return nil
	}
	alphabet := []string{"a", "Z", ",", `"`, "\n", " ", "\t", "é", ";", `\.`, "\r"}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(alphabet[p.intn(len(alphabet))])
	}
	return b.String()
}

// date draws a day between 0001-01-01 and 9999-12-31, the years DumpCSV
// writes as YYYY-MM-DD.
func (p *csvPicker) date() any {
	const first, last = -719162, 2932896
	if p.intn(5) == 0 {
		return nil
	}
	days := first + int64(p.bits()%(last-first+1))
	return time.Unix(days*86400, 0).UTC()
}

func (p *csvPicker) boolean() any {
	switch p.intn(3) {
	case 0:
		return nil
	case 1:
		return true
	}
	return false
}
