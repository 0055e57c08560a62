package expr

import (
	"math"
	"math/rand"
	"testing"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// refEval is the row-at-a-time evaluation the predicate kernels
// replaced: boxed values, types.Compare and types.Equal per row,
// three-valued logic spelled out per row. It is the specification
// Select and the predicates' Eval are held to; value expressions
// (column references, constants, arithmetic, casts) use their own
// Eval.
func refEval(ctx *Context, e Expr, in *storage.Chunk) (*storage.Column, error) {
	n := in.NumRows()
	out := storage.NewColumn(types.KindBool, n)
	appendBool := func(b bool) {
		if b {
			out.AppendInt(1)
		} else {
			out.AppendInt(0)
		}
	}
	switch t := e.(type) {
	case *Cmp:
		lc, err := refEval(ctx, t.L, in)
		if err != nil {
			return nil, err
		}
		rc, err := refEval(ctx, t.R, in)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			lv, rv := lc.Get(i), rc.Get(i)
			if lv.Null || rv.Null {
				out.AppendNull()
				continue
			}
			c := types.Compare(lv, rv)
			appendBool([...]bool{
				CmpEq: c == 0, CmpNe: c != 0, CmpLt: c < 0, CmpLe: c <= 0, CmpGt: c > 0, CmpGe: c >= 0,
			}[t.Op])
		}
	case *Logic:
		lc, err := refEval(ctx, t.L, in)
		if err != nil {
			return nil, err
		}
		rc, err := refEval(ctx, t.R, in)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			ln, rn := lc.IsNull(i), rc.IsNull(i)
			lv := !ln && lc.Ints[i] != 0
			rv := !rn && rc.Ints[i] != 0
			switch {
			case t.And && (!ln && !lv || !rn && !rv):
				appendBool(false)
			case !t.And && (lv || rv):
				appendBool(true)
			case ln || rn:
				out.AppendNull()
			default:
				appendBool(t.And)
			}
		}
	case *Not:
		xc, err := refEval(ctx, t.X, in)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if xc.IsNull(i) {
				out.AppendNull()
				continue
			}
			appendBool(xc.Ints[i] == 0)
		}
	case *IsNull:
		xc, err := refEval(ctx, t.X, in)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			appendBool(xc.IsNull(i) != t.Not)
		}
	case *InList:
		xc, err := refEval(ctx, t.X, in)
		if err != nil {
			return nil, err
		}
		cols := make([]*storage.Column, len(t.List))
		for j, le := range t.List {
			if cols[j], err = refEval(ctx, le, in); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			if xc.IsNull(i) {
				out.AppendNull()
				continue
			}
			xv := xc.Get(i)
			found, sawNull := false, false
			for _, c := range cols {
				v := c.Get(i)
				if v.Null {
					sawNull = true
				} else if types.Equal(xv, v) {
					found = true
					break
				}
			}
			switch {
			case found:
				appendBool(!t.Not)
			case sawNull:
				out.AppendNull()
			default:
				appendBool(t.Not)
			}
		}
	case *Like:
		xc, err := refEval(ctx, t.X, in)
		if err != nil {
			return nil, err
		}
		pc, err := refEval(ctx, t.Pattern, in)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if xc.IsNull(i) || pc.IsNull(i) {
				out.AppendNull()
				continue
			}
			appendBool(compileLike(pc.Strs[i])(xc.Strs[i]) != t.Not)
		}
	default:
		return e.Eval(ctx, in)
	}
	return out, nil
}

// predGen builds a random chunk and a random predicate over it from
// fuzz bytes; exhausted input reads as zeros.
type predGen struct {
	b      []byte
	params []types.Value
}

func (g *predGen) next(n int) int {
	if len(g.b) == 0 {
		return 0
	}
	v := int(g.b[0])
	g.b = g.b[1:]
	return v % n
}

var (
	genInts    = []int64{0, 1, -1, 2, 3, math.MinInt64, math.MaxInt64}
	genFloats  = []float64{0, math.Copysign(0, -1), 1, -1, 1.5, 2, math.NaN(), math.Inf(1), math.Inf(-1)}
	genStrings = []string{"", "a", "ab", "b", "ba", "a%", "%b", "_", "%"}
)

// The chunk's columns, two of each comparable kind.
const (
	colInt = iota * 2
	colFloat
	colString
	colDate
	colBool
	numCols
)

var genKinds = [...]types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindBool}

func (g *predGen) value(k types.Kind) types.Value {
	switch k {
	case types.KindInt:
		return types.NewInt(genInts[g.next(len(genInts))])
	case types.KindFloat:
		return types.NewFloat(genFloats[g.next(len(genFloats))])
	case types.KindString:
		return types.NewString(genStrings[g.next(len(genStrings))])
	case types.KindDate:
		return types.NewDate(int64(g.next(4)))
	}
	return types.NewBool(g.next(2) == 1)
}

func (g *predGen) chunk(rows int) *storage.Chunk {
	var sch storage.Schema
	for j := 0; j < numCols; j++ {
		sch = append(sch, storage.ColMeta{Name: string(rune('a' + j)), Kind: genKinds[j/2]})
	}
	c := storage.NewChunk(sch)
	// A column drawn without NULLs has no null mask, which is the shape
	// of most base-table columns and the kernels' fast path.
	maskless := make([]bool, numCols)
	for j := range maskless {
		maskless[j] = g.next(3) == 1
	}
	for i := 0; i < rows; i++ {
		for j, col := range c.Cols {
			if !maskless[j] && g.next(5) == 1 {
				col.AppendNull()
			} else {
				col.Append(g.value(sch[j].Kind))
			}
		}
	}
	return c
}

// operand returns a value expression of kind k: a column, a literal, a
// parameter, a NULL, or (for DOUBLE) a BIGINT widened as the binder
// widens it.
func (g *predGen) operand(k types.Kind) Expr {
	kind := 0
	for kind < len(genKinds) && genKinds[kind] != k {
		kind++
	}
	switch g.next(8) {
	case 0, 1, 2:
		idx := kind*2 + g.next(2)
		return &ColRef{Idx: idx, K: k}
	case 3:
		return &Const{Val: g.value(k)}
	case 4:
		g.params = append(g.params, g.value(k))
		return &Param{Idx: len(g.params) - 1, K: k}
	case 5:
		if g.next(2) == 0 {
			return &Const{Val: types.NewNull(types.KindNull)}
		}
		return &Const{Val: types.NewNull(k)}
	case 6:
		switch k {
		case types.KindFloat:
			return &Cast{X: g.operand(types.KindInt), To: types.KindFloat}
		case types.KindInt:
			return &Arith{Op: OpAdd, L: g.operand(types.KindInt), R: &Const{Val: types.NewInt(1)}, K: types.KindInt}
		}
	}
	return &ColRef{Idx: kind * 2, K: k}
}

// comparable returns two operands a comparison accepts: one kind, or a
// raw BIGINT × DOUBLE mix compared with widening, in either order.
func (g *predGen) comparable() (Expr, Expr) {
	k := genKinds[g.next(len(genKinds))]
	l, r := g.operand(k), g.operand(k)
	if g.next(6) == 0 {
		l, r = g.operand(types.KindInt), g.operand(types.KindFloat)
	}
	if g.next(2) == 0 {
		l, r = r, l
	}
	return l, r
}

func (g *predGen) pred(depth int) Expr {
	choice := g.next(9)
	if depth >= 3 {
		choice %= 4
	}
	switch choice {
	case 0, 1:
		l, r := g.comparable()
		return &Cmp{Op: CmpOp(g.next(6)), L: l, R: r}
	case 2:
		return g.operand(types.KindBool)
	case 3:
		list := make([]Expr, 1+g.next(3))
		k := genKinds[g.next(len(genKinds))]
		for j := range list {
			list[j] = g.operand(k)
		}
		return &InList{X: g.operand(k), List: list, Not: g.next(2) == 1}
	case 4:
		return &Like{X: g.operand(types.KindString), Pattern: g.operand(types.KindString), Not: g.next(2) == 1}
	case 5:
		var x Expr = g.operand(genKinds[g.next(len(genKinds))])
		if g.next(2) == 0 {
			x = g.pred(depth + 1)
		}
		return &IsNull{X: x, Not: g.next(2) == 1}
	case 6:
		return &Not{X: g.pred(depth + 1)}
	}
	return &Logic{And: g.next(2) == 1, L: g.pred(depth + 1), R: g.pred(depth + 1)}
}

// checkPredicate holds Select and Eval of pred to refEval over in.
func checkPredicate(t *testing.T, ctx *Context, pred Expr, in *storage.Chunk) {
	t.Helper()
	want, err := refEval(ctx, pred, in)
	if err != nil {
		t.Fatalf("%s: reference: %v", pred, err)
	}
	var keep []int
	for i := 0; i < in.NumRows(); i++ {
		if !want.IsNull(i) && want.Ints[i] != 0 {
			keep = append(keep, i)
		}
	}
	sel, err := Select(ctx, pred, in, make([]int, 3))
	if err != nil {
		t.Fatalf("%s: Select: %v", pred, err)
	}
	if len(sel) != len(keep) {
		t.Fatalf("%s: Select = %v, want %v\n%s", pred, sel, keep, in)
	}
	for i := range sel {
		if sel[i] != keep[i] {
			t.Fatalf("%s: Select = %v, want %v\n%s", pred, sel, keep, in)
		}
	}
	got, err := pred.Eval(ctx, in)
	if err != nil {
		t.Fatalf("%s: Eval: %v", pred, err)
	}
	if got.Len() != in.NumRows() {
		t.Fatalf("%s: Eval gave %d rows, want %d", pred, got.Len(), in.NumRows())
	}
	for i := 0; i < in.NumRows(); i++ {
		if got.IsNull(i) != want.IsNull(i) || !got.IsNull(i) && got.Ints[i] != want.Ints[i] {
			t.Fatalf("%s: Eval row %d = %v, want %v\n%s", pred, i, got.Get(i), want.Get(i), in)
		}
	}
	if got.HasNulls() != (got.Nulls != nil) {
		t.Fatalf("%s: Eval keeps a null mask without NULLs", pred)
	}
}

func FuzzPredicateKernels(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		b := make([]byte, 16+r.Intn(400))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g := &predGen{b: b}
		rows := g.next(24)
		pred := g.pred(0)
		in := g.chunk(rows)
		checkPredicate(t, &Context{Params: g.params}, pred, in)
	})
}

// TestScalarComparisonEdges holds every comparison operator, with the
// scalar on either side and selected for TRUE and for FALSE, to the
// reference over the float edge values — NaN, ±0.0, ±Inf — and the
// integer extremes, on columns with and without a null mask: the
// values at which the per-operator loops and the outcome-index loops
// could part.
func TestScalarComparisonEdges(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	floats := []float64{nan, negZero, 0, math.Inf(1), math.Inf(-1), 1.5, -1}
	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	sch := storage.Schema{{Name: "f", Kind: types.KindFloat}, {Name: "i", Kind: types.KindInt}}
	for _, withNull := range []bool{false, true} {
		in := storage.NewChunk(sch)
		for r := 0; r < len(floats)*len(ints); r++ {
			in.Cols[0].AppendFloat(floats[r%len(floats)])
			in.Cols[1].AppendInt(ints[r%len(ints)])
		}
		if withNull {
			in.Cols[0].AppendNull()
			in.Cols[1].AppendNull()
		}
		var scalars []types.Value
		for _, f := range floats {
			scalars = append(scalars, types.NewFloat(f))
		}
		for _, i := range ints {
			scalars = append(scalars, types.NewInt(i))
		}
		for col, k := range []types.Kind{types.KindFloat, types.KindInt} {
			x := &ColRef{Idx: col, K: k}
			for _, v := range scalars {
				for op := CmpEq; op <= CmpGe; op++ {
					for _, scalarLeft := range []bool{false, true} {
						var c Expr = &Cmp{Op: op, L: x, R: &Const{Val: v}}
						if scalarLeft {
							c = &Cmp{Op: op, L: &Const{Val: v}, R: x}
						}
						checkPredicate(t, &Context{}, c, in)
					}
				}
			}
		}
	}
}
