// Package expr defines bound (resolved, typed) scalar expressions and
// their column-at-a-time evaluation over chunks, the execution style
// of the MonetDB model the paper's prototype targets.
//
// An expression evaluates in one of two ways. Eval computes its value
// for every row of a chunk as a column. Select (select.go) answers
// which rows a predicate keeps, as a selection vector of row indices:
// typed comparison, IN, LIKE and IS NULL kernels narrow the candidate
// rows in place, AND hands its right operand only the rows its left
// one kept, and OR its right operand only the rows its left one did
// not keep. A literal or bound parameter operand of a kernel or of
// arithmetic is read once as a scalar (IsConst) rather than broadcast
// into a column. A predicate's Eval — its boolean column, used in
// projections and CASE — is derived from the same kernels: the rows
// selected as TRUE, the rows selected as FALSE, NULL elsewhere.
package expr

import (
	"fmt"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Context carries per-execution state: the host parameter values bound
// to ? placeholders.
type Context struct {
	Params []types.Value
}

// Expr is a bound scalar expression.
type Expr interface {
	// Kind is the static result type.
	Kind() types.Kind
	// Eval computes the expression for every row of in.
	Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error)
	// String renders the expression for plans and error messages.
	String() string
}

// ---------------------------------------------------------------------------
// leaves

// ColRef references column Idx of the input chunk.
type ColRef struct {
	Idx  int
	K    types.Kind
	Name string
}

// Kind implements Expr.
func (c *ColRef) Kind() types.Kind { return c.K }

// Eval implements Expr; the referenced column is shared, not copied.
func (c *ColRef) Eval(_ *Context, in *storage.Chunk) (*storage.Column, error) {
	if c.Idx < 0 || c.Idx >= len(in.Cols) {
		return nil, fmt.Errorf("internal: column ref %d out of range (%d cols)", c.Idx, len(in.Cols))
	}
	return in.Cols[c.Idx], nil
}

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Idx)
}

// Const is a literal value.
type Const struct{ Val types.Value }

// Kind implements Expr.
func (c *Const) Kind() types.Kind { return c.Val.K }

// Eval implements Expr.
func (c *Const) Eval(_ *Context, in *storage.Chunk) (*storage.Column, error) {
	return storage.ConstColumn(c.Val, in.NumRows()), nil
}

func (c *Const) String() string { return c.Val.String() }

// Param is the Idx-th host parameter; its kind is fixed at bind time
// from the supplied argument.
type Param struct {
	Idx int
	K   types.Kind
}

// Kind implements Expr.
func (p *Param) Kind() types.Kind { return p.K }

// Eval implements Expr.
func (p *Param) Eval(ctx *Context, in *storage.Chunk) (*storage.Column, error) {
	if p.Idx >= len(ctx.Params) {
		return nil, fmt.Errorf("missing value for parameter %d", p.Idx+1)
	}
	return storage.ConstColumn(ctx.Params[p.Idx], in.NumRows()), nil
}

func (p *Param) String() string { return fmt.Sprintf("?%d", p.Idx+1) }

// IsConst reports whether e is a constant (literal or bound parameter)
// and returns its value. Used by the graph operator to recognize
// constant weight expressions and pick BFS (§1: "missed algorithmic
// opportunities").
func IsConst(e Expr, ctx *Context) (types.Value, bool) {
	switch t := e.(type) {
	case *Const:
		return t.Val, true
	case *Param:
		if ctx != nil && t.Idx < len(ctx.Params) {
			return ctx.Params[t.Idx], true
		}
	case *Cast:
		v, ok := IsConst(t.X, ctx)
		if !ok {
			return types.Value{}, false
		}
		out, err := castValue(v, t.To)
		if err != nil {
			return types.Value{}, false
		}
		return out, true
	}
	return types.Value{}, false
}

// EvalScalar evaluates an expression that must not reference any
// column (LIMIT counts, VALUES rows, DEFAULTs). A literal or parameter
// is its own value, of the kind a column of it would hold (Kind.Stored).
func EvalScalar(e Expr, ctx *Context) (types.Value, error) {
	if v, ok := IsConst(e, ctx); ok {
		v.K = v.K.Stored()
		return v, nil
	}
	one := &storage.Chunk{
		Schema: storage.Schema{{Name: "dummy", Kind: types.KindInt}},
		Cols:   []*storage.Column{storage.ConstColumn(types.NewInt(0), 1)},
	}
	col, err := e.Eval(ctx, one)
	if err != nil {
		return types.Value{}, err
	}
	if col.Len() != 1 {
		return types.Value{}, fmt.Errorf("internal: scalar expression produced %d rows", col.Len())
	}
	return col.Get(0), nil
}
