package graphsql

import (
	"encoding/binary"
	"math"
	"strconv"

	"graphsql/internal/sql/fingerprint"
	"graphsql/internal/types"
)

// Stmt is one statement with its arguments, identified once: NewStmt
// converts the arguments, fingerprint-normalizes the text (filter
// literals become placeholders whose values merge with the arguments
// in statement order) and records the leading keyword, in a single
// lexer pass. Everything that asks "which statement is this?" reads
// the answer from the Stmt instead of computing it again: the query-log
// fingerprint, the session plan-cache key, a result-cache key and the
// read/write class. Run one with Session.QueryStmt. A Stmt is
// immutable and may be shared.
type Stmt struct {
	sql    string
	params []types.Value
	norm   fingerprint.Normalized
	// execSQL and execParams are what executes: the normalized text
	// with the merged arguments, or sql and params verbatim when
	// normalization extracted nothing or the argument count does not
	// match the placeholders (so the mismatch error reads as written).
	execSQL    string
	execParams []types.Value
}

// NewStmt builds the identity of sql run with args. It fails only on
// an argument of a type the engine has no value for.
func NewStmt(sql string, args ...any) (*Stmt, error) {
	params, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	st := &Stmt{sql: sql, params: params, norm: fingerprint.Normalize(sql), execSQL: sql, execParams: params}
	if st.norm.Changed() {
		if merged, ok := st.norm.MergeValues(params); ok {
			st.execSQL, st.execParams = st.norm.SQL, merged
		}
	}
	return st, nil
}

// Fingerprint is the statement's shape: its text with filter literals
// replaced by ?, so it names the statement without quoting literal
// values. It is the text as written when nothing was extracted.
func (st *Stmt) Fingerprint() string { return st.norm.SQL }

// Reads reports whether the statement only reads, so its result may be
// cached: the dialect's read statements open with SELECT or WITH, and
// no write statement can.
func (st *Stmt) Reads() bool {
	return st.norm.Keyword == "SELECT" || st.norm.Keyword == "WITH"
}

// Writes reports whether the statement may change data, so cached
// results of its database should be dropped.
func (st *Stmt) Writes() bool {
	switch st.norm.Keyword {
	case "INSERT", "DELETE", "CREATE", "DROP":
		return true
	}
	return false
}

// AppendKey appends the statement's identity to b: the text it
// executes, then each argument's kind and value. Two statements that
// execute the same text with the same typed arguments — a literal and
// the same value passed as ? — append the same bytes; any other
// difference appends different ones. Every field is self-delimiting
// (the text and string values are length-prefixed, other values fixed
// width), so no payload byte can shift a field boundary, and the key
// may follow any self-delimiting prefix.
func (st *Stmt) AppendKey(b []byte) []byte { return st.appendKey(b, true) }

// appendKey is AppendKey, without the argument values unless values is
// set: a plan depends on the argument kinds only, so the session plan
// cache keys on the text and kinds.
func (st *Stmt) appendKey(b []byte, values bool) []byte {
	b = appendString(b, st.execSQL)
	for _, v := range st.execParams {
		b = append(b, byte(v.K))
		if !values {
			continue
		}
		switch {
		case v.Null:
			b = append(b, 0)
		case v.K == types.KindFloat:
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
		case v.K == types.KindString:
			b = append(b, 1)
			b = appendString(b, v.S)
		default: // BOOLEAN, BIGINT and DATE carry their payload in I
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint64(b, uint64(v.I))
		}
	}
	return b
}

// appendString appends s length-prefixed: its byte length, ':', s.
func appendString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}
