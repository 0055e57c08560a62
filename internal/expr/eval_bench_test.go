package expr

import (
	"testing"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// BenchmarkPredicateEval times a predicate's boolean column (Eval, the
// projection and CASE path) over one 1,024-row batch.
func BenchmarkPredicateEval(b *testing.B) {
	const n = 1024
	seq := make([]int64, n)
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range seq {
		seq[i] = int64(i)
		xs[i], ys[i] = float64(i%97), float64(i%89)
	}
	in := &storage.Chunk{
		Schema: storage.Schema{
			{Name: "seq", Kind: types.KindInt},
			{Name: "x", Kind: types.KindFloat},
			{Name: "y", Kind: types.KindFloat},
		},
		Cols: []*storage.Column{
			storage.ColumnFromInts(types.KindInt, seq),
			storage.ColumnFromFloats(xs),
			storage.ColumnFromFloats(ys),
		},
	}
	s := &ColRef{Idx: 0, K: types.KindInt}
	x, y := &ColRef{Idx: 1, K: types.KindFloat}, &ColRef{Idx: 2, K: types.KindFloat}
	ge := &Cmp{Op: CmpGe, L: s, R: &Param{Idx: 0, K: types.KindInt}}
	lt := &Cmp{Op: CmpLt, L: s, R: &Param{Idx: 1, K: types.KindInt}}
	ctx := &Context{Params: []types.Value{types.NewInt(256), types.NewInt(768)}}
	for _, bc := range []struct {
		name string
		pred Expr
	}{
		{"cmp_int_param", ge},
		{"cmp_float_cols", &Cmp{Op: CmpLt, L: x, R: y}},
		{"and", &Logic{And: true, L: ge, R: lt}},
		{"or", &Logic{L: &Cmp{Op: CmpLt, L: x, R: y}, R: lt}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.pred.Eval(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
