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

// BenchmarkSelect times Select, the filter's kernel, over one 1,024-row
// batch: a DOUBLE column against a parameter at about 3% selectivity
// (the scan_stream predicate), a BIGINT column against a parameter, and
// the Fig 1b pairs window.
func BenchmarkSelect(b *testing.B) {
	const n = 1024
	seq := make([]int64, n)
	ws := make([]float64, n)
	for i := range seq {
		seq[i] = int64(i)
		ws[i] = float64(i*7919%n) / n
	}
	in := &storage.Chunk{
		Schema: storage.Schema{
			{Name: "seq", Kind: types.KindInt},
			{Name: "weight", Kind: types.KindFloat},
		},
		Cols: []*storage.Column{
			storage.ColumnFromInts(types.KindInt, seq),
			storage.ColumnFromFloats(ws),
		},
	}
	s, w := &ColRef{Idx: 0, K: types.KindInt}, &ColRef{Idx: 1, K: types.KindFloat}
	ctx := &Context{Params: []types.Value{types.NewFloat(0.97), types.NewInt(256), types.NewInt(384)}}
	ge := &Cmp{Op: CmpGe, L: s, R: &Param{Idx: 1, K: types.KindInt}}
	for _, bc := range []struct {
		name string
		pred Expr
		rows int
	}{
		{"double_gt_param", &Cmp{Op: CmpGt, L: w, R: &Param{Idx: 0, K: types.KindFloat}}, 30},
		{"bigint_ge_param", ge, n - 256},
		{"seq_window", &Logic{And: true, L: ge, R: &Cmp{Op: CmpLt, L: s, R: &Param{Idx: 2, K: types.KindInt}}}, 128},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sel := make([]int, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sel, err = Select(ctx, bc.pred, in, sel); err != nil {
					b.Fatal(err)
				}
			}
			if len(sel) != bc.rows {
				b.Fatalf("selected %d rows, want %d", len(sel), bc.rows)
			}
		})
	}
}
