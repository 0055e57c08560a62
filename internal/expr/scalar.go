package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Cast converts X to the target kind To with SQL CAST semantics.
type Cast struct {
	X  Expr
	To types.Kind
}

// Kind implements Expr.
func (c *Cast) Kind() types.Kind { return c.To }

func (c *Cast) String() string { return fmt.Sprintf("CAST(%s AS %v)", c.X, c.To) }

// Eval implements Expr.
func (c *Cast) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	xc, err := c.X.Eval(ctx, in)
	if err != nil {
		return nil, err
	}
	if xc.Kind == c.To {
		return xc, nil
	}
	n := xc.Len()
	out := storage.NewColumn(c.To, n)
	for i := 0; i < n; i++ {
		if xc.IsNull(i) {
			out.AppendNull()
			continue
		}
		v, err := castValue(xc.Get(i), c.To)
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

// castValue converts one scalar.
func castValue(v types.Value, to types.Kind) (types.Value, error) {
	if v.Null {
		return types.NewNull(to), nil
	}
	if v.K == to {
		return v, nil
	}
	switch to {
	case types.KindInt:
		switch v.K {
		case types.KindFloat:
			return types.NewInt(int64(v.F)), nil // truncation toward zero
		case types.KindBool, types.KindDate:
			return types.NewInt(v.I), nil
		case types.KindString:
			s := strings.TrimSpace(v.S)
			i, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				if f, ferr := strconv.ParseFloat(s, 64); ferr == nil {
					return types.NewInt(int64(f)), nil
				}
				return types.Value{}, fmt.Errorf("cannot cast %q to BIGINT", v.S)
			}
			return types.NewInt(i), nil
		}
	case types.KindFloat:
		switch v.K {
		case types.KindInt, types.KindBool:
			return types.NewFloat(float64(v.I)), nil
		case types.KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return types.Value{}, fmt.Errorf("cannot cast %q to DOUBLE", v.S)
			}
			return types.NewFloat(f), nil
		}
	case types.KindString:
		return types.NewString(v.String()), nil
	case types.KindBool:
		switch v.K {
		case types.KindInt:
			return types.NewBool(v.I != 0), nil
		case types.KindString:
			switch strings.ToLower(strings.TrimSpace(v.S)) {
			case "true", "t", "1":
				return types.NewBool(true), nil
			case "false", "f", "0":
				return types.NewBool(false), nil
			}
			return types.Value{}, fmt.Errorf("cannot cast %q to BOOLEAN", v.S)
		}
	case types.KindDate:
		switch v.K {
		case types.KindString:
			d, err := types.ParseDate(strings.TrimSpace(v.S))
			if err != nil {
				return types.Value{}, err
			}
			return types.NewDate(d), nil
		case types.KindInt:
			return types.NewDate(v.I), nil
		}
	}
	return types.Value{}, fmt.Errorf("cannot cast %v to %v", v.K, to)
}

// CastValue is the exported scalar cast used by INSERT coercion.
func CastValue(v types.Value, to types.Kind) (types.Value, error) { return castValue(v, to) }

// Case is CASE WHEN ... THEN ... ELSE ... END; the binder desugared the
// operand form into searched form.
type Case struct {
	Whens []Expr // boolean conditions
	Thens []Expr
	Else  Expr // may be nil => NULL
	K     types.Kind
}

// Kind implements Expr.
func (c *Case) Kind() types.Kind { return c.K }

func (c *Case) String() string { return "CASE" }

// Eval implements Expr; every arm is evaluated over the whole chunk
// (column-at-a-time execution has no lazy branches).
func (c *Case) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	n := in.NumRows()
	conds := make([]*storage.Column, len(c.Whens))
	vals := make([]*storage.Column, len(c.Thens))
	for i := range c.Whens {
		cc, err := c.Whens[i].Eval(ctx, in)
		if err != nil {
			return nil, err
		}
		conds[i] = cc
		vc, err := c.Thens[i].Eval(ctx, in)
		if err != nil {
			return nil, err
		}
		vals[i] = vc
	}
	var elseCol *storage.Column
	if c.Else != nil {
		ec, err := c.Else.Eval(ctx, in)
		if err != nil {
			return nil, err
		}
		elseCol = ec
	}
	out := storage.NewColumn(c.K, n)
rows:
	for i := 0; i < n; i++ {
		for a := range conds {
			if !conds[a].IsNull(i) && conds[a].Ints[i] != 0 {
				out.Append(vals[a].Get(i))
				continue rows
			}
		}
		if elseCol != nil {
			out.Append(elseCol.Get(i))
		} else {
			out.AppendNull()
		}
	}
	return out, nil
}

// Like is X [NOT] LIKE pattern with % and _ wildcards.
type Like struct {
	X, Pattern Expr
	Not        bool
}

// Kind implements Expr.
func (l *Like) Kind() types.Kind { return types.KindBool }

func (l *Like) String() string { return fmt.Sprintf("(%s LIKE %s)", l.X, l.Pattern) }

// Eval implements Expr by selection (evalPredicate).
func (l *Like) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	return evalPredicate(ctx, l, in)
}

// compileLike builds a matcher for a SQL LIKE pattern.
func compileLike(pat string) func(string) bool {
	// Split on %, match segments greedily with _ as single-char
	// wildcard.
	segs := strings.Split(pat, "%")
	return func(s string) bool {
		return likeMatch(s, segs, len(segs) == 1)
	}
}

func likeMatch(s string, segs []string, exact bool) bool {
	if exact {
		return likeSegEq(s, segs[0])
	}
	// First segment anchors at the start.
	first := segs[0]
	if len(s) < len(first) || !likeSegEq(s[:len(first)], first) {
		return false
	}
	s = s[len(first):]
	// Last segment anchors at the end.
	last := segs[len(segs)-1]
	if len(s) < len(last) || !likeSegEq(s[len(s)-len(last):], last) {
		return false
	}
	tail := s[:len(s)-len(last)]
	// Middle segments match greedily left to right.
	for _, seg := range segs[1 : len(segs)-1] {
		if seg == "" {
			continue
		}
		idx := likeIndex(tail, seg)
		if idx < 0 {
			return false
		}
		tail = tail[idx+len(seg):]
	}
	return true
}

// likeSegEq compares a segment honoring the _ wildcard.
func likeSegEq(s, seg string) bool {
	if len(s) != len(seg) {
		return false
	}
	for i := 0; i < len(seg); i++ {
		if seg[i] != '_' && seg[i] != s[i] {
			return false
		}
	}
	return true
}

// likeIndex finds the first match of seg (with _ wildcards) inside s.
func likeIndex(s, seg string) int {
	for i := 0; i+len(seg) <= len(s); i++ {
		if likeSegEq(s[i:i+len(seg)], seg) {
			return i
		}
	}
	return -1
}

// Func is a scalar function call with a fixed evaluator.
type Func struct {
	Name string
	Args []Expr
	K    types.Kind
}

// Kind implements Expr.
func (f *Func) Kind() types.Kind { return f.K }

func (f *Func) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(args, ", "))
}

// ScalarFuncKind resolves the result kind of a scalar function given
// its argument kinds; ok is false for unknown functions or arity.
func ScalarFuncKind(name string, args []types.Kind) (types.Kind, bool) {
	switch name {
	case "ABS":
		if len(args) == 1 && (args[0].Numeric() || args[0] == types.KindNull) {
			if args[0] == types.KindFloat {
				return types.KindFloat, true
			}
			return types.KindInt, true
		}
	case "FLOOR", "CEIL", "CEILING", "ROUND":
		if len(args) == 1 {
			return types.KindFloat, true
		}
	case "SQRT", "LN", "EXP":
		if len(args) == 1 {
			return types.KindFloat, true
		}
	case "LENGTH", "CHAR_LENGTH":
		if len(args) == 1 {
			return types.KindInt, true
		}
	case "UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM":
		if len(args) == 1 {
			return types.KindString, true
		}
	case "SUBSTR", "SUBSTRING":
		if len(args) == 2 || len(args) == 3 {
			return types.KindString, true
		}
	case "REPLACE":
		if len(args) == 3 {
			return types.KindString, true
		}
	case "COALESCE":
		if len(args) >= 1 {
			k := types.KindNull
			for _, a := range args {
				nk, ok := types.CommonKind(k, a)
				if !ok {
					return 0, false
				}
				k = nk
			}
			return k, true
		}
	case "NULLIF":
		if len(args) == 2 {
			return args[0], true
		}
	case "GREATEST", "LEAST":
		if len(args) >= 1 {
			k := types.KindNull
			for _, a := range args {
				nk, ok := types.CommonKind(k, a)
				if !ok {
					return 0, false
				}
				k = nk
			}
			return k, true
		}
	case "PATH_LENGTH":
		// Extension: number of edges in a nested-table path.
		if len(args) == 1 && (args[0] == types.KindPath || args[0] == types.KindNull) {
			return types.KindInt, true
		}
	case "YEAR", "MONTH", "DAY":
		if len(args) == 1 && (args[0] == types.KindDate || args[0] == types.KindNull) {
			return types.KindInt, true
		}
	case "DATE_ADD":
		// DATE_ADD(date, days) — extension convenience.
		if len(args) == 2 {
			return types.KindDate, true
		}
	}
	return 0, false
}

// Eval implements Expr.
func (f *Func) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	cols := make([]*storage.Column, len(f.Args))
	for i, a := range f.Args {
		c, err := a.Eval(ctx, in)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	n := in.NumRows()
	out := storage.NewColumn(f.K, n)
	for i := 0; i < n; i++ {
		v, err := f.evalRow(cols, i)
		if err != nil {
			return nil, err
		}
		if !v.Null && v.K != f.K {
			cv, err := castValue(v, f.K)
			if err != nil {
				return nil, err
			}
			v = cv
		}
		out.Append(v)
	}
	return out, nil
}

func (f *Func) evalRow(cols []*storage.Column, i int) (types.Value, error) {
	arg := func(j int) types.Value { return cols[j].Get(i) }
	// COALESCE and friends handle NULL themselves; others propagate.
	switch f.Name {
	case "COALESCE":
		for j := range cols {
			if v := arg(j); !v.Null {
				return v, nil
			}
		}
		return types.NewNull(f.K), nil
	case "NULLIF":
		a, b := arg(0), arg(1)
		if !a.Null && !b.Null && types.Equal(a, b) {
			return types.NewNull(f.K), nil
		}
		return a, nil
	case "GREATEST", "LEAST":
		var best types.Value
		bestSet := false
		for j := range cols {
			v := arg(j)
			if v.Null {
				return types.NewNull(f.K), nil
			}
			if !bestSet {
				best, bestSet = v, true
				continue
			}
			c := types.Compare(v, best)
			if (f.Name == "GREATEST" && c > 0) || (f.Name == "LEAST" && c < 0) {
				best = v
			}
		}
		return best, nil
	}
	for j := range cols {
		if cols[j].IsNull(i) {
			return types.NewNull(f.K), nil
		}
	}
	switch f.Name {
	case "ABS":
		v := arg(0)
		if v.K == types.KindFloat {
			return types.NewFloat(math.Abs(v.F)), nil
		}
		if v.I < 0 {
			return types.NewInt(-v.I), nil
		}
		return v, nil
	case "FLOOR":
		return types.NewFloat(math.Floor(arg(0).AsFloat())), nil
	case "CEIL", "CEILING":
		return types.NewFloat(math.Ceil(arg(0).AsFloat())), nil
	case "ROUND":
		return types.NewFloat(math.Round(arg(0).AsFloat())), nil
	case "SQRT":
		x := arg(0).AsFloat()
		if x < 0 {
			return types.Value{}, fmt.Errorf("SQRT of negative value %v", x)
		}
		return types.NewFloat(math.Sqrt(x)), nil
	case "LN":
		x := arg(0).AsFloat()
		if x <= 0 {
			return types.Value{}, fmt.Errorf("LN of non-positive value %v", x)
		}
		return types.NewFloat(math.Log(x)), nil
	case "EXP":
		return types.NewFloat(math.Exp(arg(0).AsFloat())), nil
	case "LENGTH", "CHAR_LENGTH":
		return types.NewInt(int64(len(arg(0).S))), nil
	case "UPPER":
		return types.NewString(strings.ToUpper(arg(0).S)), nil
	case "LOWER":
		return types.NewString(strings.ToLower(arg(0).S)), nil
	case "TRIM":
		return types.NewString(strings.TrimSpace(arg(0).S)), nil
	case "LTRIM":
		return types.NewString(strings.TrimLeft(arg(0).S, " \t")), nil
	case "RTRIM":
		return types.NewString(strings.TrimRight(arg(0).S, " \t")), nil
	case "SUBSTR", "SUBSTRING":
		s := arg(0).S
		start := int(arg(1).I) // 1-based
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return types.NewString(""), nil
		}
		rest := s[start-1:]
		if len(f.Args) == 3 {
			l := int(arg(2).I)
			if l < 0 {
				l = 0
			}
			if l < len(rest) {
				rest = rest[:l]
			}
		}
		return types.NewString(rest), nil
	case "REPLACE":
		return types.NewString(strings.ReplaceAll(arg(0).S, arg(1).S, arg(2).S)), nil
	case "PATH_LENGTH":
		return types.NewInt(int64(arg(0).P.Len())), nil
	case "YEAR", "MONTH", "DAY":
		tm := time.Unix(arg(0).I*86400, 0).UTC()
		switch f.Name {
		case "YEAR":
			return types.NewInt(int64(tm.Year())), nil
		case "MONTH":
			return types.NewInt(int64(tm.Month())), nil
		default:
			return types.NewInt(int64(tm.Day())), nil
		}
	case "DATE_ADD":
		return types.NewDate(arg(0).I + arg(1).I), nil
	}
	return types.Value{}, fmt.Errorf("unknown function %s", f.Name)
}

// InList is X [NOT] IN (v1, v2, ...) under SQL NULL semantics.
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

// Kind implements Expr.
func (e *InList) Kind() types.Kind { return types.KindBool }

func (e *InList) String() string { return fmt.Sprintf("(%s IN [...])", e.X) }

// Eval implements Expr by selection (evalPredicate).
func (e *InList) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	return evalPredicate(ctx, e, in)
}
