package expr

import (
	"fmt"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/", "%"}[op]
}

// Arith is a binary arithmetic expression over numeric operands, both
// already promoted to the common kind K by the binder.
type Arith struct {
	Op   ArithOp
	L, R Expr
	K    types.Kind
}

// Kind implements Expr.
func (a *Arith) Kind() types.Kind { return a.K }

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Eval implements Expr with specialized int/float loops; a literal or
// parameter operand is read once as a scalar.
func (a *Arith) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	l, err := evalOperand(ctx, a.L, in)
	if err != nil {
		return nil, err
	}
	r, err := evalOperand(ctx, a.R, in)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	out := storage.NewColumn(a.K, n)
	if a.K == types.KindInt {
		lx, ls := l.ints()
		rx, rs := r.ints()
		for i := 0; i < n; i++ {
			if l.nullAt(i) || r.nullAt(i) {
				out.AppendNull()
				continue
			}
			x, y := lx[i*ls], rx[i*rs]
			var v int64
			switch a.Op {
			case OpAdd:
				v = x + y
			case OpSub:
				v = x - y
			case OpMul:
				v = x * y
			case OpDiv:
				if y == 0 {
					return nil, fmt.Errorf("division by zero")
				}
				v = x / y
			case OpMod:
				if y == 0 {
					return nil, fmt.Errorf("modulo by zero")
				}
				v = x % y
			}
			out.AppendInt(v)
		}
		return out, nil
	}
	// Float path; operands may still be int-backed (promotion).
	lf, rf := l.floatAt(), r.floatAt()
	for i := 0; i < n; i++ {
		if l.nullAt(i) || r.nullAt(i) {
			out.AppendNull()
			continue
		}
		x, y := lf(i), rf(i)
		var v float64
		switch a.Op {
		case OpAdd:
			v = x + y
		case OpSub:
			v = x - y
		case OpMul:
			v = x * y
		case OpDiv:
			if y == 0 {
				return nil, fmt.Errorf("division by zero")
			}
			v = x / y
		case OpMod:
			return nil, fmt.Errorf("%% requires integer operands")
		}
		out.AppendFloat(v)
	}
	return out, nil
}

// ints returns an integer operand's payload and the stride rows step
// through it: 1 for a column, 0 for a scalar.
func (o operand) ints() ([]int64, int) {
	if o.col == nil {
		return []int64{o.val.I}, 0
	}
	return o.col.Ints, 1
}

// floatAt returns an accessor that widens a numeric operand to float.
func (o operand) floatAt() func(int) float64 {
	switch {
	case o.col == nil:
		f := o.val.AsFloat()
		return func(int) float64 { return f }
	case o.col.Kind == types.KindFloat:
		return func(i int) float64 { return o.col.Floats[i] }
	}
	return func(i int) float64 { return float64(o.col.Ints[i]) }
}

// Neg is unary minus.
type Neg struct {
	X Expr
	K types.Kind
}

// Kind implements Expr.
func (u *Neg) Kind() types.Kind { return u.K }

func (u *Neg) String() string { return fmt.Sprintf("(-%s)", u.X) }

// Eval implements Expr.
func (u *Neg) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	xc, err := u.X.Eval(ctx, in)
	if err != nil {
		return nil, err
	}
	n := xc.Len()
	out := storage.NewColumn(u.K, n)
	for i := 0; i < n; i++ {
		if xc.IsNull(i) {
			out.AppendNull()
			continue
		}
		if u.K == types.KindFloat {
			out.AppendFloat(-xc.Floats[i])
		} else {
			out.AppendInt(-xc.Ints[i])
		}
	}
	return out, nil
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// CmpOpFromString maps the SQL token to the operator.
func CmpOpFromString(s string) (CmpOp, bool) {
	switch s {
	case "=":
		return CmpEq, true
	case "<>":
		return CmpNe, true
	case "<":
		return CmpLt, true
	case "<=":
		return CmpLe, true
	case ">":
		return CmpGt, true
	case ">=":
		return CmpGe, true
	}
	return 0, false
}

// Cmp compares two operands of a common comparable kind; NULL operands
// yield NULL (three-valued logic).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Kind implements Expr.
func (c *Cmp) Kind() types.Kind { return types.KindBool }

func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// Eval implements Expr from the comparison kernels (evalPredicate).
func (c *Cmp) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	return evalPredicate(ctx, c, in)
}

// Logic is AND/OR under SQL three-valued logic.
type Logic struct {
	And  bool // true = AND, false = OR
	L, R Expr
}

// Kind implements Expr.
func (l *Logic) Kind() types.Kind { return types.KindBool }

func (l *Logic) String() string {
	op := "OR"
	if l.And {
		op = "AND"
	}
	return fmt.Sprintf("(%s %s %s)", l.L, op, l.R)
}

// Eval implements Expr by selection (evalPredicate).
func (l *Logic) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	return evalPredicate(ctx, l, in)
}

// Not is logical negation (NULL stays NULL).
type Not struct{ X Expr }

// Kind implements Expr.
func (u *Not) Kind() types.Kind { return types.KindBool }

func (u *Not) String() string { return fmt.Sprintf("(NOT %s)", u.X) }

// Eval implements Expr by selection (evalPredicate).
func (u *Not) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	return evalPredicate(ctx, u, in)
}

// Concat is the || string concatenation operator; non-string operands
// were wrapped in casts by the binder.
type Concat struct{ L, R Expr }

// Kind implements Expr.
func (c *Concat) Kind() types.Kind { return types.KindString }

func (c *Concat) String() string { return fmt.Sprintf("(%s || %s)", c.L, c.R) }

// Eval implements Expr.
func (c *Concat) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	lc, err := c.L.Eval(ctx, in)
	if err != nil {
		return nil, err
	}
	rc, err := c.R.Eval(ctx, in)
	if err != nil {
		return nil, err
	}
	n := lc.Len()
	out := storage.NewColumn(types.KindString, n)
	for i := 0; i < n; i++ {
		if lc.IsNull(i) || rc.IsNull(i) {
			out.AppendNull()
			continue
		}
		out.AppendString(lc.Strs[i] + rc.Strs[i])
	}
	return out, nil
}

// IsNull is X IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Kind implements Expr.
func (e *IsNull) Kind() types.Kind { return types.KindBool }

func (e *IsNull) String() string {
	if e.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", e.X)
	}
	return fmt.Sprintf("(%s IS NULL)", e.X)
}

// Eval implements Expr by selection (evalPredicate).
func (e *IsNull) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	return evalPredicate(ctx, e, in)
}
