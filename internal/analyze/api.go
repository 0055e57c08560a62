package analyze

import (
	"fmt"

	"graphsql/internal/expr"
	"graphsql/internal/sql/ast"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// TypeNameKind maps a SQL type name (INT, DOUBLE, VARCHAR, ...) to its
// runtime kind.
func TypeNameKind(name string) (types.Kind, error) { return typeNameKind(name) }

// BindScalar binds an expression that may not reference any column
// (INSERT VALUES rows, LIMIT counts).
func (b *Binder) BindScalar(e ast.Expr) (expr.Expr, error) {
	return b.bindExpr(e, &scope{schema: storage.Schema{}})
}

// BindOver binds an expression against an explicit schema (used by
// DELETE ... WHERE).
func (b *Binder) BindOver(e ast.Expr, sch storage.Schema) (expr.Expr, error) {
	return b.bindExpr(e, &scope{schema: sch, paths: map[int]storage.Schema{}})
}

// LitValue is the value of one literal VALUES cell: what binding and
// evaluating the same literal as an expression (BindScalar, then
// expr.EvalScalar) gives, errors and their text included.
func LitValue(c ast.Lit, params []types.Value) (types.Value, error) {
	switch c.Kind {
	case ast.LitParam:
		if int(c.Param) >= len(params) {
			return types.Value{}, paramError(int(c.Param), len(params))
		}
		v := params[c.Param]
		v.K = v.K.Stored()
		return v, nil
	case ast.LitDate:
		return expr.CastValue(types.NewString(c.Text), types.KindDate)
	}
	v, err := litValue(c.Kind, c.Text)
	if err != nil {
		return v, err
	}
	switch {
	case !c.Neg:
	case v.K == types.KindFloat:
		v.F = -v.F
	default:
		v.I = -v.I
	}
	v.K = v.K.Stored()
	return v, nil
}

// paramError reports a ? past the supplied arguments.
func paramError(idx, supplied int) error {
	return fmt.Errorf("statement uses parameter %d but only %d argument(s) were supplied", idx+1, supplied)
}
