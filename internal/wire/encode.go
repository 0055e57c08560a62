package wire

// The one cell encoder: each cell is appended to a byte buffer once —
// from its typed column by AppendChunk on every gsqld and gsql result,
// or boxed by appendCell for the [][]any entry points (Append,
// QueryResponse.Encode, StreamWriter.Batch). Anything without a direct
// case — a string that needs escaping, NaN, ±Inf, a path, a folded
// json.Number, another type — goes through appendCell's
// encoding/json route, so bytes and error text are encoding/json's.

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"graphsql"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// EncodeError is a cell with no JSON encoding; its text is encoding/json's.
type EncodeError struct{ error }

// Encoded is a result in its wire encoding: the column names and each
// row's JSON array, rows joined by commas, with the offset just past
// each row — so any window of consecutive rows is one slice, written as
// is into a batch frame or a buffered body. The result cache stores
// Encoded rows and serves a hit at any frame size without encoding.
type Encoded struct {
	columns []string
	rows    []byte
	ends    []int
}

// NewEncoded returns an empty encoding of a result with these columns.
func NewEncoded(columns []string) *Encoded { return &Encoded{columns: columns} }

// Columns returns the column names.
func (e *Encoded) Columns() []string { return e.columns }

// Len returns the number of encoded rows.
func (e *Encoded) Len() int { return len(e.ends) }

// Size returns the bytes of the encoded rows and their row ends.
func (e *Encoded) Size() int64 { return int64(len(e.rows) + 8*len(e.ends)) }

// Reset drops the encoded rows, keeping the buffers.
func (e *Encoded) Reset() { e.rows, e.ends = e.rows[:0], e.ends[:0] }

// Append encodes rows after those held. On an *EncodeError it keeps
// the rows before the failing one. Appending no rows does not touch e.
func (e *Encoded) Append(rows [][]any) error {
	return e.appendRows(len(rows), func(b []byte, i int) ([]byte, error) { return appendRow(b, rows[i]) })
}

// AppendChunk encodes the rows of an executor batch after those held,
// each cell straight from its typed column — the bytes Append writes
// for the same rows boxed the way graphsql.Rows.NextBatch boxes them.
// Path cells and non-finite floats take appendCell's route through
// their boxed form, so their bytes and error text stay encoding/json's.
// On an *EncodeError it keeps the rows before the failing one.
func (e *Encoded) AppendChunk(c *storage.Chunk) error {
	return e.appendRows(c.NumRows(), func(b []byte, i int) ([]byte, error) {
		b = append(b, '[')
		for j, col := range c.Cols {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendColumnCell(b, col, i); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	})
}

// appendRows appends n rows, row i by row, each after a comma but the
// first; a row that fails is dropped with the rows after it.
func (e *Encoded) appendRows(n int, row func(b []byte, i int) ([]byte, error)) error {
	for i := range n {
		b, held := e.rows, len(e.rows)
		if len(e.ends) > 0 {
			b = append(b, ',')
		}
		b, err := row(b, i)
		if err != nil {
			e.rows = b[:held]
			return err
		}
		e.rows, e.ends = b, append(e.ends, len(b))
	}
	return nil
}

// appendColumnCell appends entry i of col as appendCell appends its
// boxed form (graphsql.Cell).
func appendColumnCell(b []byte, col *storage.Column, i int) ([]byte, error) {
	if col.IsNull(i) {
		return append(b, "null"...), nil
	}
	switch col.Kind {
	case types.KindFloat:
		if f := col.Floats[i]; !math.IsInf(f, 0) && !math.IsNaN(f) {
			return appendFloat(b, f), nil
		}
	case types.KindString:
		return appendString(b, col.Strs[i])
	case types.KindBool:
		return strconv.AppendBool(b, col.Ints[i] != 0), nil
	case types.KindDate:
		return appendDate(b, time.Unix(col.Ints[i]*86400, 0).UTC()), nil
	case types.KindPath: // appendCell's route, below
	default:
		return strconv.AppendInt(b, col.Ints[i], 10), nil
	}
	return appendCell(b, graphsql.Cell(col, i))
}

// discard drops the first n rows, keeping those after them.
func (e *Encoded) discard(n int) {
	if n == 0 {
		return
	}
	if n == len(e.ends) {
		e.Reset()
		return
	}
	start := e.ends[n-1] + 1 // past the separating comma
	e.rows = e.rows[:copy(e.rows, e.rows[start:])]
	e.ends = e.ends[:copy(e.ends, e.ends[n:])]
	for i := range e.ends {
		e.ends[i] -= start
	}
}

// window returns rows [lo, hi) as they appear inside a JSON array.
func (e *Encoded) window(lo, hi int) []byte {
	if lo >= hi {
		return nil
	}
	start := 0
	if lo > 0 {
		start = e.ends[lo-1] + 1 // past the separating comma
	}
	return e.rows[start:e.ends[hi-1]]
}

// AppendResponse appends the buffered QueryResponse body of the result;
// tree, when non-nil, is the query's span tree.
func (e *Encoded) AppendResponse(dst []byte, tree *trace.Node) ([]byte, error) {
	r := QueryResponse{Columns: e.columns, RowCount: e.Len(), Trace: tree}
	return r.appendTo(dst, e.window(0, e.Len()))
}

// appendTo appends the response as encoding/json would marshal it, with
// rows its rows already encoded. A stream trailer is the same object
// without columns and rows.
func (r *QueryResponse) appendTo(b []byte, rows []byte) ([]byte, error) {
	b = append(b, '{')
	if len(r.Columns) > 0 {
		b = append(appendNames(append(b, `"columns":`...), r.Columns), ',')
	}
	if len(rows) > 0 {
		b = append(append(append(b, `"rows":[`...), rows...), "],"...)
	}
	b = strconv.AppendInt(append(b, `"row_count":`...), int64(r.RowCount), 10)
	var err error
	if r.Trace != nil {
		b, err = appendJSON(append(b, `,"trace":`...), r.Trace)
	}
	if r.Error != nil && err == nil {
		b, err = appendJSON(append(b, `,"error":`...), r.Error)
	}
	return append(b, '}'), err
}

func appendJSON(b []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	return append(b, data...), err
}

// appendArray appends items as a JSON array, each through add.
func appendArray[T any](b []byte, items []T, add func([]byte, T) ([]byte, error)) ([]byte, error) {
	b = append(b, '[')
	for i, v := range items {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = add(b, v); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

func appendRow(b []byte, row []any) ([]byte, error) { return appendArray(b, row, appendCell) }

// appendNames appends a JSON array of names (nil is null).
func appendNames(b []byte, names []string) []byte {
	if names == nil {
		return append(b, "null"...)
	}
	b, _ = appendArray(b, names, appendString) // strings always encode
	return b
}

// appendCell appends one cell as the package comment maps it.
func appendCell(b []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		return strconv.AppendBool(b, t), nil
	case int64:
		return strconv.AppendInt(b, t, 10), nil
	case float64:
		if !math.IsInf(t, 0) && !math.IsNaN(t) {
			return appendFloat(b, t), nil
		}
	case string:
		return appendString(b, t)
	case time.Time:
		return appendDate(b, t), nil
	case *graphsql.Path:
		if t != nil {
			b = append(appendNames(append(b, `{"columns":`...), t.Columns), `,"rows":`...)
			b, err := appendArray(b, t.Rows, appendRow)
			return append(b, '}'), err
		}
	}
	b, err := appendJSON(b, v)
	if err != nil {
		return b, &EncodeError{error: err}
	}
	return b, nil
}

// appendDate appends a DATE cell as a "YYYY-MM-DD" string.
func appendDate(b []byte, t time.Time) []byte {
	return append(t.AppendFormat(append(b, '"'), "2006-01-02"), '"')
}

// appendString appends s as a JSON string; it never fails.
func appendString(b []byte, s string) ([]byte, error) {
	if plain(s) {
		return append(append(append(b, '"'), s...), '"'), nil
	}
	return appendJSON(b, s)
}

// appendFloat is encoding/json's float64 form: shortest round-trip
// digits, exponent notation below 1e-6 and from 1e21, "e-7" not "e-07".
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// plain reports whether encoding/json writes s between quotes as is:
// valid UTF-8 without control characters, "\<>&, U+2028 or U+2029.
func plain(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}
