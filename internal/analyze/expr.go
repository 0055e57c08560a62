package analyze

import (
	"fmt"
	"strconv"
	"strings"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/sql/ast"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// cheapestCols locates the generated columns of one CHEAPEST SUM call.
type cheapestCols struct {
	costIdx  int
	costKind types.Kind
	pathIdx  int // -1 when the path was not requested
}

// aggEnv is the post-aggregation binding environment: expressions may
// only reference GROUP BY expressions (matched by canonical rendering)
// or aggregate calls.
type aggEnv struct {
	// colOf maps a canonical expression rendering to its column in
	// the aggregate output schema.
	colOf map[string]int
}

// scope is the name-resolution environment for expression binding.
type scope struct {
	schema storage.Schema
	// paths maps path-typed column indices to their nested schemas.
	paths map[int]storage.Schema
	// cheapest maps canonical CHEAPEST SUM keys (binding + weight
	// rendering, see csKey) to their generated columns; populated
	// while planning a block that has reachability predicates.
	// Identical calls share one spec wherever they appear (SELECT
	// list, GROUP BY, HAVING, ORDER BY).
	cheapest map[string]cheapestCols
	// agg switches binding into post-aggregation mode.
	agg *aggEnv
}

func (s *scope) resolve(parts []string) (int, error) {
	var tbl, name string
	switch len(parts) {
	case 1:
		name = parts[0]
	case 2:
		tbl, name = parts[0], parts[1]
	default:
		return -1, fmt.Errorf("identifier %s has too many qualifiers", strings.Join(parts, "."))
	}
	idx := s.schema.ColIndex(tbl, name)
	switch idx {
	case -1:
		return -1, fmt.Errorf("column %q not found", strings.Join(parts, "."))
	case -2:
		return -1, fmt.Errorf("column reference %q is ambiguous", strings.Join(parts, "."))
	}
	return idx, nil
}

// typeNameKind maps a SQL type name to a runtime kind.
func typeNameKind(name string) (types.Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return types.KindInt, nil
	case "DOUBLE", "FLOAT", "REAL":
		return types.KindFloat, nil
	case "VARCHAR", "TEXT", "CHAR", "STRING":
		return types.KindString, nil
	case "BOOLEAN", "BOOL":
		return types.KindBool, nil
	case "DATE":
		return types.KindDate, nil
	}
	return 0, fmt.Errorf("unknown type %q", name)
}

// isAggName reports whether the function name is an aggregate.
func isAggName(name string) bool {
	switch name {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// litValue converts a literal the parser read: the one place the
// int/float choice of a number is made, for the binder's literal nodes
// and for the VALUES cells the engine appends without binding
// (LitValue). A DATE or a ? is not a plain literal here.
func litValue(k ast.LitKind, text string) (types.Value, error) {
	switch k {
	case ast.LitInt:
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return types.NewInt(i), nil
		}
		fallthrough
	case ast.LitFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("invalid numeric literal %q", text)
		}
		return types.NewFloat(f), nil
	case ast.LitString:
		return types.NewString(text), nil
	case ast.LitTrue, ast.LitFalse:
		return types.NewBool(k == ast.LitTrue), nil
	case ast.LitNull:
		return types.NewNull(types.KindNull), nil
	}
	return types.Value{}, fmt.Errorf("internal: literal kind %d has no plain value", k)
}

func constLit(k ast.LitKind, text string) (expr.Expr, error) {
	v, err := litValue(k, text)
	if err != nil {
		return nil, err
	}
	return &expr.Const{Val: v}, nil
}

// bindExpr translates an AST expression into a bound expression over
// the scope.
func (b *Binder) bindExpr(e ast.Expr, sc *scope) (expr.Expr, error) {
	// Post-aggregation mode: group expressions and aggregate calls
	// become column references into the Aggregate output.
	if sc.agg != nil {
		if idx, ok := sc.agg.colOf[render(e)]; ok {
			return &expr.ColRef{Idx: idx, K: sc.schema[idx].Kind, Name: sc.schema[idx].Name}, nil
		}
		if fc, ok := e.(*ast.FuncCall); ok && isAggName(fc.Name) {
			return nil, fmt.Errorf("internal: unregistered aggregate %s", render(fc))
		}
		if id, ok := e.(*ast.Ident); ok {
			return nil, fmt.Errorf("column %q must appear in the GROUP BY clause or be used in an aggregate function", id)
		}
	}

	switch t := e.(type) {
	case *ast.Ident:
		idx, err := sc.resolve(t.Parts)
		if err != nil {
			return nil, fmt.Errorf("line %d col %d: %w", t.Line, t.Col, err)
		}
		m := sc.schema[idx]
		return &expr.ColRef{Idx: idx, K: m.Kind, Name: m.QualifiedName()}, nil

	case *ast.NumberLit:
		kind := ast.LitInt
		if t.IsFloat {
			kind = ast.LitFloat
		}
		return constLit(kind, t.Text)

	case *ast.StringLit:
		return constLit(ast.LitString, t.Val)

	case *ast.BoolLit:
		if t.Val {
			return constLit(ast.LitTrue, "")
		}
		return constLit(ast.LitFalse, "")

	case *ast.NullLit:
		return constLit(ast.LitNull, "")

	case *ast.ParamExpr:
		if t.Index >= len(b.params) {
			return nil, paramError(t.Index, len(b.params))
		}
		return &expr.Param{Idx: t.Index, K: b.params[t.Index].K}, nil

	case *ast.UnaryExpr:
		x, err := b.bindExpr(t.X, sc)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "-":
			if !x.Kind().Numeric() && x.Kind() != types.KindNull {
				return nil, fmt.Errorf("unary minus requires a numeric operand, got %v", x.Kind())
			}
			k := x.Kind()
			if k == types.KindNull {
				k = types.KindInt
			}
			return &expr.Neg{X: x, K: k}, nil
		case "NOT":
			if x.Kind() != types.KindBool && x.Kind() != types.KindNull {
				return nil, fmt.Errorf("NOT requires a boolean operand, got %v", x.Kind())
			}
			return &expr.Not{X: x}, nil
		}
		return nil, fmt.Errorf("unknown unary operator %s", t.Op)

	case *ast.BinaryExpr:
		return b.bindBinary(t, sc)

	case *ast.IsNullExpr:
		x, err := b.bindExpr(t.X, sc)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{X: x, Not: t.Not}, nil

	case *ast.InExpr:
		x, err := b.bindExpr(t.X, sc)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(t.List))
		for i, le := range t.List {
			v, err := b.bindExpr(le, sc)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, x.Kind())
			if err != nil {
				return nil, fmt.Errorf("IN list element %d: %w", i+1, err)
			}
			list[i] = cv
		}
		return &expr.InList{X: x, List: list, Not: t.Not}, nil

	case *ast.BetweenExpr:
		// Desugar: X BETWEEN lo AND hi => X >= lo AND X <= hi.
		ge := &ast.BinaryExpr{Op: ">=", L: t.X, R: t.Lo}
		le := &ast.BinaryExpr{Op: "<=", L: t.X, R: t.Hi}
		both := &ast.BinaryExpr{Op: "AND", L: ge, R: le}
		if t.Not {
			return b.bindExpr(&ast.UnaryExpr{Op: "NOT", X: both}, sc)
		}
		return b.bindExpr(both, sc)

	case *ast.LikeExpr:
		x, err := b.bindExpr(t.X, sc)
		if err != nil {
			return nil, err
		}
		pat, err := b.bindExpr(t.Pattern, sc)
		if err != nil {
			return nil, err
		}
		if x.Kind() != types.KindString && x.Kind() != types.KindNull {
			return nil, fmt.Errorf("LIKE requires string operands, got %v", x.Kind())
		}
		if pat.Kind() != types.KindString && pat.Kind() != types.KindNull {
			return nil, fmt.Errorf("LIKE pattern must be a string, got %v", pat.Kind())
		}
		return &expr.Like{X: x, Pattern: pat, Not: t.Not}, nil

	case *ast.CaseExpr:
		return b.bindCase(t, sc)

	case *ast.CastExpr:
		x, err := b.bindExpr(t.X, sc)
		if err != nil {
			return nil, err
		}
		k, err := typeNameKind(t.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{X: x, To: k}, nil

	case *ast.FuncCall:
		if isAggName(t.Name) {
			return nil, fmt.Errorf("line %d col %d: aggregate %s is not allowed here", t.Line, t.Col, t.Name)
		}
		args := make([]expr.Expr, len(t.Args))
		kinds := make([]types.Kind, len(t.Args))
		for i, a := range t.Args {
			x, err := b.bindExpr(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = x
			kinds[i] = x.Kind()
		}
		k, ok := expr.ScalarFuncKind(t.Name, kinds)
		if !ok {
			return nil, fmt.Errorf("line %d col %d: unknown function %s with %d argument(s)", t.Line, t.Col, t.Name, len(t.Args))
		}
		return &expr.Func{Name: t.Name, Args: args, K: k}, nil

	case *ast.CheapestSum:
		if sc.cheapest != nil {
			if cc, ok := sc.cheapest[csKey(t)]; ok {
				return &expr.ColRef{Idx: cc.costIdx, K: cc.costKind, Name: "cheapest_sum"}, nil
			}
		}
		return nil, fmt.Errorf("line %d col %d: CHEAPEST SUM is only allowed in the SELECT list of a block with a REACHES predicate", t.Line, t.Col)

	case *ast.ReachesExpr:
		return nil, fmt.Errorf("line %d col %d: REACHES is only allowed as a top-level conjunct of the WHERE clause", t.Line, t.Col)

	case *ast.InSubquery:
		return nil, fmt.Errorf("line %d col %d: IN (SELECT ...) is only allowed as a top-level conjunct of the WHERE clause", t.Line, t.Col)

	case *ast.ExistsExpr:
		return nil, fmt.Errorf("line %d col %d: EXISTS is only allowed as a top-level conjunct of the WHERE clause", t.Line, t.Col)
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func (b *Binder) bindBinary(t *ast.BinaryExpr, sc *scope) (expr.Expr, error) {
	l, err := b.bindExpr(t.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := b.bindExpr(t.R, sc)
	if err != nil {
		return nil, err
	}
	switch t.Op {
	case "AND", "OR":
		for _, x := range []expr.Expr{l, r} {
			if x.Kind() != types.KindBool && x.Kind() != types.KindNull {
				return nil, fmt.Errorf("%s requires boolean operands, got %v", t.Op, x.Kind())
			}
		}
		return &expr.Logic{And: t.Op == "AND", L: l, R: r}, nil

	case "||":
		lc, err := coerce(l, types.KindString)
		if err != nil {
			return nil, err
		}
		rc, err := coerce(r, types.KindString)
		if err != nil {
			return nil, err
		}
		return &expr.Concat{L: lc, R: rc}, nil

	case "=", "<>", "<", "<=", ">", ">=":
		op, _ := expr.CmpOpFromString(t.Op)
		l2, r2, err := promotePair(l, r)
		if err != nil {
			return nil, err
		}
		return &expr.Cmp{Op: op, L: l2, R: r2}, nil

	case "+", "-", "*", "/", "%":
		lk, rk := l.Kind(), r.Kind()
		if (!lk.Numeric() && lk != types.KindNull) || (!rk.Numeric() && rk != types.KindNull) {
			return nil, fmt.Errorf("operator %s requires numeric operands, got %v and %v", t.Op, lk, rk)
		}
		k, _ := types.CommonKind(lk, rk)
		if k == types.KindNull {
			k = types.KindInt
		}
		if t.Op == "%" && k != types.KindInt {
			return nil, fmt.Errorf("%% requires integer operands")
		}
		l2, err := coerce(l, k)
		if err != nil {
			return nil, err
		}
		r2, err := coerce(r, k)
		if err != nil {
			return nil, err
		}
		var op expr.ArithOp
		switch t.Op {
		case "+":
			op = expr.OpAdd
		case "-":
			op = expr.OpSub
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		case "%":
			op = expr.OpMod
		}
		return &expr.Arith{Op: op, L: l2, R: r2, K: k}, nil
	}
	return nil, fmt.Errorf("unknown binary operator %s", t.Op)
}

func (b *Binder) bindCase(t *ast.CaseExpr, sc *scope) (expr.Expr, error) {
	c := &expr.Case{}
	bindArm := func(when ast.Expr) (expr.Expr, error) {
		if t.Operand != nil {
			// Operand form desugars to operand = when.
			return b.bindExpr(&ast.BinaryExpr{Op: "=", L: t.Operand, R: when}, sc)
		}
		w, err := b.bindExpr(when, sc)
		if err != nil {
			return nil, err
		}
		if w.Kind() != types.KindBool && w.Kind() != types.KindNull {
			return nil, fmt.Errorf("CASE WHEN condition must be boolean, got %v", w.Kind())
		}
		return w, nil
	}
	resultKind := types.KindNull
	var thens []expr.Expr
	for _, arm := range t.Whens {
		w, err := bindArm(arm.When)
		if err != nil {
			return nil, err
		}
		th, err := b.bindExpr(arm.Then, sc)
		if err != nil {
			return nil, err
		}
		nk, ok := types.CommonKind(resultKind, th.Kind())
		if !ok {
			return nil, fmt.Errorf("CASE branches have incompatible types %v and %v", resultKind, th.Kind())
		}
		resultKind = nk
		c.Whens = append(c.Whens, w)
		thens = append(thens, th)
	}
	var elseE expr.Expr
	if t.Else != nil {
		x, err := b.bindExpr(t.Else, sc)
		if err != nil {
			return nil, err
		}
		nk, ok := types.CommonKind(resultKind, x.Kind())
		if !ok {
			return nil, fmt.Errorf("CASE branches have incompatible types %v and %v", resultKind, x.Kind())
		}
		resultKind = nk
		elseE = x
	}
	if resultKind == types.KindNull {
		resultKind = types.KindInt
	}
	for _, th := range thens {
		cv, err := coerce(th, resultKind)
		if err != nil {
			return nil, err
		}
		c.Thens = append(c.Thens, cv)
	}
	if elseE != nil {
		cv, err := coerce(elseE, resultKind)
		if err != nil {
			return nil, err
		}
		c.Else = cv
	}
	c.K = resultKind
	return c, nil
}

// coerce inserts a cast when the expression kind differs from want.
// NULL-kind expressions pass through (typed at runtime).
func coerce(e expr.Expr, want types.Kind) (expr.Expr, error) {
	k := e.Kind()
	if k == want || k == types.KindNull {
		return e, nil
	}
	switch {
	case k.Numeric() && want.Numeric(),
		want == types.KindString,
		k == types.KindString && want == types.KindDate,
		k == types.KindString && want.Numeric():
		return &expr.Cast{X: e, To: want}, nil
	}
	return nil, fmt.Errorf("cannot use %v where %v is required", k, want)
}

// promotePair promotes comparison operands to a common kind, allowing
// numeric widening and string-literal-to-date coercion.
func promotePair(l, r expr.Expr) (expr.Expr, expr.Expr, error) {
	lk, rk := l.Kind(), r.Kind()
	if lk == rk || lk == types.KindNull || rk == types.KindNull {
		return l, r, nil
	}
	if lk.Numeric() && rk.Numeric() {
		k := types.KindInt
		if lk == types.KindFloat || rk == types.KindFloat {
			k = types.KindFloat
		}
		lc, _ := coerce(l, k)
		rc, _ := coerce(r, k)
		return lc, rc, nil
	}
	// date vs string: compare as dates (handles creationDate <
	// '2011-01-01' from the paper's appendix A.3).
	if lk == types.KindDate && rk == types.KindString {
		rc, err := coerce(r, types.KindDate)
		return l, rc, err
	}
	if lk == types.KindString && rk == types.KindDate {
		lc, err := coerce(l, types.KindDate)
		return lc, r, err
	}
	return nil, nil, fmt.Errorf("cannot compare %v with %v", lk, rk)
}

// collectAggs gathers aggregate calls in e (not descending into their
// arguments) and reports an error on nested aggregates.
func collectAggs(e ast.Expr, out *[]*ast.FuncCall) error {
	switch t := e.(type) {
	case *ast.FuncCall:
		if isAggName(t.Name) {
			for _, a := range t.Args {
				if err := ensureNoAggs(a); err != nil {
					return err
				}
			}
			*out = append(*out, t)
			return nil
		}
		for _, a := range t.Args {
			if err := collectAggs(a, out); err != nil {
				return err
			}
		}
	case *ast.BinaryExpr:
		if err := collectAggs(t.L, out); err != nil {
			return err
		}
		return collectAggs(t.R, out)
	case *ast.UnaryExpr:
		return collectAggs(t.X, out)
	case *ast.IsNullExpr:
		return collectAggs(t.X, out)
	case *ast.InExpr:
		if err := collectAggs(t.X, out); err != nil {
			return err
		}
		for _, le := range t.List {
			if err := collectAggs(le, out); err != nil {
				return err
			}
		}
	case *ast.BetweenExpr:
		for _, x := range []ast.Expr{t.X, t.Lo, t.Hi} {
			if err := collectAggs(x, out); err != nil {
				return err
			}
		}
	case *ast.LikeExpr:
		if err := collectAggs(t.X, out); err != nil {
			return err
		}
		return collectAggs(t.Pattern, out)
	case *ast.CaseExpr:
		if t.Operand != nil {
			if err := collectAggs(t.Operand, out); err != nil {
				return err
			}
		}
		for _, w := range t.Whens {
			if err := collectAggs(w.When, out); err != nil {
				return err
			}
			if err := collectAggs(w.Then, out); err != nil {
				return err
			}
		}
		if t.Else != nil {
			return collectAggs(t.Else, out)
		}
	case *ast.CastExpr:
		return collectAggs(t.X, out)
	case *ast.CheapestSum:
		// Weight expressions evaluate over the edge table; aggregates
		// cannot appear there and are rejected when the weight binds.
		return nil
	}
	return nil
}

// ensureNoAggs rejects aggregates anywhere inside e.
func ensureNoAggs(e ast.Expr) error {
	var found []*ast.FuncCall
	if err := collectAggs(e, &found); err != nil {
		return err
	}
	if len(found) > 0 {
		return fmt.Errorf("aggregate calls cannot be nested")
	}
	return nil
}

// bindAggSpec builds the plan.AggSpec for one aggregate call, binding
// its argument over the pre-aggregation scope.
func (b *Binder) bindAggSpec(fc *ast.FuncCall, sc *scope) (plan.AggSpec, error) {
	spec := plan.AggSpec{Distinct: fc.Distinct, Name: render(fc)}
	if fc.Name == "COUNT" && fc.Star {
		spec.Op = plan.AggCountStar
		spec.Kind = types.KindInt
		return spec, nil
	}
	if len(fc.Args) != 1 {
		return plan.AggSpec{}, fmt.Errorf("%s takes exactly one argument", fc.Name)
	}
	arg, err := b.bindExpr(fc.Args[0], sc)
	if err != nil {
		return plan.AggSpec{}, err
	}
	spec.Arg = arg
	switch fc.Name {
	case "COUNT":
		spec.Op = plan.AggCount
		spec.Kind = types.KindInt
	case "SUM":
		if !arg.Kind().Numeric() && arg.Kind() != types.KindNull {
			return plan.AggSpec{}, fmt.Errorf("SUM requires a numeric argument, got %v", arg.Kind())
		}
		spec.Op = plan.AggSum
		spec.Kind = arg.Kind()
		if spec.Kind == types.KindNull {
			spec.Kind = types.KindInt
		}
	case "AVG":
		if !arg.Kind().Numeric() && arg.Kind() != types.KindNull {
			return plan.AggSpec{}, fmt.Errorf("AVG requires a numeric argument, got %v", arg.Kind())
		}
		spec.Op = plan.AggAvg
		spec.Kind = types.KindFloat
	case "MIN", "MAX":
		if !arg.Kind().Comparable() && arg.Kind() != types.KindNull {
			return plan.AggSpec{}, fmt.Errorf("%s requires a comparable argument, got %v", fc.Name, arg.Kind())
		}
		if fc.Name == "MIN" {
			spec.Op = plan.AggMin
		} else {
			spec.Op = plan.AggMax
		}
		spec.Kind = arg.Kind()
		if spec.Kind == types.KindNull {
			spec.Kind = types.KindInt
		}
	}
	return spec, nil
}
