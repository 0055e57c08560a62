//go:build gsqlpoison

package exec

import (
	"testing"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/types"
)

// TestPoisoningCatchesAHeldBatch: in a poisoning build, a consumer that
// holds a batch — or one of its columns — across the next pull reads
// poisoned rows, for each owner that reuses its batches: a window over
// a chunk, a filter's gathered output and a projection's header.
func TestPoisoningCatchesAHeldBatch(t *testing.T) {
	in := mkChunk("t", 0, 5, 1, 6, 2, 7, 3, 8, 4, 9)
	v := &expr.ColRef{Idx: 0, K: types.KindInt, Name: "v"}
	for _, c := range []struct {
		name string
		n    plan.Node
		// cols: the owner also owns the column headers, so a held column
		// is poisoned as well as a held chunk.
		cols bool
	}{
		{"window", scan(in), true},
		// Batches 0,5,1 | 6,2,7 | 3,8,4 keep 5 | 6,7 | 8: all gathered.
		{"filter", &plan.Filter{Input: scan(in), Pred: &expr.Cmp{Op: expr.CmpGe, L: v, R: &expr.Const{Val: types.NewInt(5)}}}, true},
		{"project", &plan.Project{Input: scan(in), Exprs: []expr.Expr{v}, Sch: in.Schema}, false},
	} {
		ctx := (&Context{BatchRows: 3}).orDefault()
		op, err := Build(c.n, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		held, err := op.Next()
		if err != nil || held == nil {
			t.Fatalf("%s: first batch: %v, %v", c.name, held, err)
		}
		col := held.Cols[0]
		if held.Cols[0].Ints[0] == poisonInt {
			t.Fatalf("%s: the first batch is poisoned before the next pull", c.name)
		}
		if _, err := op.Next(); err != nil {
			t.Fatal(err)
		}
		for i, x := range held.Cols[0].Ints {
			if x != poisonInt {
				t.Fatalf("%s: held batch row %d reads %d after the next pull, want the poison", c.name, i, x)
			}
		}
		if c.cols && col.Ints[0] != poisonInt {
			t.Fatalf("%s: a held column reads %d after the next pull, want the poison", c.name, col.Ints[0])
		}
		op.Close()
	}
}
