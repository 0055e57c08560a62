// Package types defines the value model of the engine: scalar kinds,
// runtime values, and the nested-table path type used to represent
// shortest paths (paper §2 and §3.3).
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime types supported by the engine.
type Kind uint8

const (
	// KindNull is the type of the untyped NULL literal.
	KindNull Kind = iota
	// KindBool is a boolean, stored as 0/1 in the integer payload.
	KindBool
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindDate is a calendar date, stored as days since 1970-01-01.
	KindDate
	// KindPath is a nested table holding the edges of a shortest path.
	KindPath
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	case KindPath:
		return "NESTED TABLE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Numeric reports whether the kind participates in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Comparable reports whether values of the kind can be ordered.
func (k Kind) Comparable() bool {
	switch k {
	case KindBool, KindInt, KindFloat, KindString, KindDate:
		return true
	}
	return false
}

// Stored returns the kind a column holds values of kind k as: an
// untyped NULL is stored as a BIGINT NULL, every other kind as itself.
func (k Kind) Stored() Kind {
	if k == KindNull {
		return KindInt
	}
	return k
}

// Value is a single scalar (or nested-table) runtime value.
// The zero Value is the NULL of kind KindNull.
type Value struct {
	K    Kind
	Null bool
	// I holds the payload for KindBool (0/1), KindInt and KindDate.
	I int64
	// F holds the payload for KindFloat.
	F float64
	// S holds the payload for KindString.
	S string
	// P holds the payload for KindPath.
	P *Path
}

// Convenience constructors.

// NewNull returns a typed NULL.
func NewNull(k Kind) Value { return Value{K: k, Null: true} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{K: KindBool, I: i}
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewDate returns a date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// NewPath returns a nested-table value.
func NewPath(p *Path) Value { return Value{K: KindPath, P: p} }

// Bool returns the boolean payload; valid only for KindBool.
func (v Value) Bool() bool { return v.I != 0 }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Null }

// ParseDate parses a 'YYYY-MM-DD' literal into days since the epoch.
// A canonical date (four, two and two digits naming a real day) is
// counted from its fields; anything else goes to time.Parse, which
// decides what else it accepts and words the error.
func ParseDate(s string) (int64, error) {
	if d, ok := civilDays(s); ok {
		return d, nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("invalid date literal %q: %w", s, err)
	}
	return t.Unix() / 86400, nil
}

// civilDays is the day number of a canonical YYYY-MM-DD date of the
// proleptic Gregorian calendar (as time counts), or false.
func civilDays(s string) (int64, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	num := func(i, j int) int64 {
		n := int64(0)
		for ; i < j; i++ {
			c := s[i] - '0'
			if c > 9 {
				return -1
			}
			n = n*10 + int64(c)
		}
		return n
	}
	y, m, d := num(0, 4), num(5, 7), num(8, 10)
	if y < 0 || m < 1 || m > 12 || d < 1 {
		return 0, false
	}
	days := 30 + (m+m/8)%2
	if m == 2 {
		days = 28
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			days = 29
		}
	}
	if d > days {
		return 0, false
	}
	// Days from the civil date, counting years from March so the leap
	// day ends a year (H. Hinnant's days_from_civil); y >= 0, so the
	// 400-year era needs no floor division once shifted by one era.
	if m <= 2 {
		y--
	}
	y += 400
	era, yoe := y/400, y%400
	doy := (153*((m+9)%12)+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return (era-1)*146097 + doe - 719468, true
}

// FormatDate renders days-since-epoch as 'YYYY-MM-DD'.
func FormatDate(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// String renders the value the way the SQL shell prints it.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.K {
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return FormatDate(v.I)
	case KindPath:
		if v.P == nil {
			return "[]"
		}
		return v.P.String()
	}
	return "NULL"
}

// Compare orders two non-NULL values of the same comparable kind.
// It returns -1, 0 or +1. Int and float compare numerically across
// kinds. NaN sorts after every other float and equals itself (the
// PostgreSQL convention), keeping Compare a total order — sorting,
// MIN/MAX and the parallel operators' determinism guarantee all
// require transitivity, which IEEE NaN comparisons would break.
func Compare(a, b Value) int {
	switch {
	case a.K == KindFloat || b.K == KindFloat:
		af, bf := a.AsFloat(), b.AsFloat()
		an, bn := math.IsNaN(af), math.IsNaN(bf)
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		case bn:
			return -1
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case a.K == KindString:
		return strings.Compare(a.S, b.S)
	default: // bool, int, date
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
}

// Equal reports value equality under Compare semantics (NULLs are equal
// to each other for grouping purposes only; callers handling SQL
// predicate semantics must special-case NULL themselves).
func Equal(a, b Value) bool {
	if a.Null || b.Null {
		return a.Null && b.Null
	}
	if a.K == KindPath || b.K == KindPath {
		return false
	}
	return Compare(a, b) == 0
}

// AsFloat widens a numeric (or bool/date) payload to float64.
func (v Value) AsFloat() float64 {
	if v.K == KindFloat {
		return v.F
	}
	return float64(v.I)
}

// CommonKind returns the kind two operands are promoted to for
// comparison or arithmetic, and whether the promotion is legal.
func CommonKind(a, b Kind) (Kind, bool) {
	if a == b {
		return a, true
	}
	if a == KindNull {
		return b, true
	}
	if b == KindNull {
		return a, true
	}
	if a.Numeric() && b.Numeric() {
		if a == KindFloat || b == KindFloat {
			return KindFloat, true
		}
		return KindInt, true
	}
	return KindNull, false
}

// Path is a nested table: the ordered multiset of edge rows that form
// one shortest path. The columns mirror the edge table that produced it
// (paper §3.3). An empty path (source == destination) has zero rows.
type Path struct {
	// Cols holds the column names of the originating edge table.
	Cols []string
	// Kinds holds the matching column kinds.
	Kinds []Kind
	// Rows holds one entry per edge, in traversal order from the
	// source to the destination.
	Rows [][]Value
}

// Len returns the number of edges (hops) in the path.
func (p *Path) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Rows)
}

// String renders the path as a compact one-line nested table.
func (p *Path) String() string {
	if p == nil || len(p.Rows) == 0 {
		return "[]"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, r := range p.Rows {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte(')')
	}
	b.WriteByte(']')
	return b.String()
}
