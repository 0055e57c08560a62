package expr

import (
	"math"
	"testing"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

func TestBoundsOnlyWhereNothingCanFail(t *testing.T) {
	in := storage.NewChunk(storage.Schema{
		{Name: "i", Kind: types.KindInt},
		{Name: "f", Kind: types.KindFloat},
		{Name: "s", Kind: types.KindString},
	})
	i, f, s := &ColRef{Idx: 0, K: types.KindInt}, &ColRef{Idx: 1, K: types.KindFloat}, &ColRef{Idx: 2, K: types.KindString}
	lit := func(v types.Value) Expr { return &Const{Val: v} }
	cmp := func(op CmpOp, l, r Expr) Expr { return &Cmp{Op: op, L: l, R: r} }
	and := func(l, r Expr) Expr { return &Logic{And: true, L: l, R: r} }
	five := lit(types.NewInt(5))
	ctx := &Context{Params: []types.Value{types.NewInt(1)}}
	// Each case that could fail carries a conjunct that alone is a
	// bound, so no bounds means pruning was refused.
	lt5 := cmp(CmpLt, i, five)
	for _, tc := range []struct {
		name   string
		pred   Expr
		bounds int
	}{
		{"range", and(cmp(CmpGe, i, &Param{Idx: 0}), lt5), 2},
		{"constant first", cmp(CmpLt, five, i), 1},
		{"widened int", cmp(CmpGe, &Cast{X: i, To: types.KindFloat}, lit(types.NewFloat(2.5))), 1},
		{"NULL constant", cmp(CmpEq, f, lit(types.NewNull(types.KindNull))), 1},
		{"OR gives no bound", &Logic{L: lt5, R: cmp(CmpGt, i, five)}, 0},
		{"NOT gives no bound", and(&Not{X: lt5}, lt5), 1},
		{"strings have no zones", and(cmp(CmpEq, s, lit(types.NewString("x"))), lt5), 1},
		{"column against column", and(cmp(CmpLt, i, f), lt5), 1},
		{"IS NULL", and(&IsNull{X: s}, lt5), 1},
		{"division", and(cmp(CmpEq, &Arith{Op: OpDiv, L: i, R: lit(types.NewInt(0)), K: types.KindInt}, five), lt5), 0},
		{"bad CAST", and(cmp(CmpLt, i, &Cast{X: lit(types.NewString("x")), To: types.KindInt}), lt5), 0},
		{"CAST of a column", and(cmp(CmpEq, &Cast{X: f, To: types.KindInt}, five), lt5), 0},
		{"unbound parameter", and(cmp(CmpLt, i, &Param{Idx: 1}), lt5), 0},
		{"kinds that do not compare", and(cmp(CmpLt, i, s), lt5), 0},
		{"function", and(&Func{Name: "abs", Args: []Expr{i}, K: types.KindInt}, lt5), 0},
		{"IN", and(&InList{X: i, List: []Expr{five}}, lt5), 0},
	} {
		if got := Bounds(ctx, tc.pred, in); len(got) != tc.bounds {
			t.Errorf("%s: %d bounds, want %d", tc.name, len(got), tc.bounds)
		}
	}
}

func TestAdmitsFollowsTheComparisonOrder(t *testing.T) {
	ints := func(lo, hi int64) storage.Zone { return storage.Zone{Valid: true, MinI: lo, MaxI: hi} }
	floats := func(lo, hi float64) storage.Zone { return storage.Zone{Valid: true, MinF: lo, MaxF: hi} }
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	intCol := storage.NewChunk(storage.Schema{{Name: "i", Kind: types.KindInt}})
	floatCol := storage.NewChunk(storage.Schema{{Name: "f", Kind: types.KindFloat}})
	for _, tc := range []struct {
		name  string
		in    *storage.Chunk
		op    CmpOp
		c     types.Value
		flip  bool
		zone  storage.Zone
		admit bool
	}{
		{"below the window", intCol, CmpLt, types.NewInt(10), false, ints(10, 20), false},
		{"at its minimum", intCol, CmpLe, types.NewInt(10), false, ints(10, 20), true},
		{"mirrored", intCol, CmpGt, types.NewInt(10), true, ints(10, 20), false},
		{"inside", intCol, CmpEq, types.NewInt(15), false, ints(10, 20), true},
		{"all equal", intCol, CmpNe, types.NewInt(15), false, ints(15, 15), false},
		{"no value", intCol, CmpNe, types.NewInt(15), false, storage.Zone{}, false},
		{"NULL constant", intCol, CmpNe, types.NewNull(types.KindNull), false, ints(10, 20), false},
		{"int against fraction", intCol, CmpGe, types.NewFloat(20.5), false, ints(10, 20), false},
		{"int extremes", intCol, CmpGt, types.NewInt(math.MaxInt64 - 1), false, ints(math.MinInt64, math.MaxInt64), true},
		{"NaN is greatest", floatCol, CmpGt, types.NewFloat(1e300), false, floats(0, nan), true},
		{"nothing above NaN", floatCol, CmpGt, types.NewFloat(nan), false, floats(0, math.Inf(1)), false},
		{"all below NaN", floatCol, CmpLt, types.NewFloat(nan), false, floats(nan, nan), false},
		{"NaN equals NaN", floatCol, CmpEq, types.NewFloat(nan), false, floats(1, nan), true},
		{"-0 equals 0", floatCol, CmpEq, types.NewFloat(0), false, floats(negZero, negZero), true},
		{"-0 is not below 0", floatCol, CmpLt, types.NewInt(0), false, floats(negZero, 0), false},
		{"infinity", floatCol, CmpGe, types.NewFloat(math.Inf(1)), false, floats(math.Inf(-1), math.Inf(1)), true},
	} {
		var p Expr = &Cmp{Op: tc.op, L: &ColRef{Idx: 0, K: tc.in.Schema[0].Kind}, R: &Const{Val: tc.c}}
		if tc.flip {
			p = &Cmp{Op: tc.op, L: &Const{Val: tc.c}, R: &ColRef{Idx: 0, K: tc.in.Schema[0].Kind}}
		}
		bounds := Bounds(nil, p, tc.in)
		if len(bounds) != 1 {
			t.Fatalf("%s: %d bounds", tc.name, len(bounds))
		}
		if got := bounds[0].Admits(tc.zone); got != tc.admit {
			t.Errorf("%s: %s admits %+v = %v, want %v", tc.name, p, tc.zone, got, tc.admit)
		}
	}
}
