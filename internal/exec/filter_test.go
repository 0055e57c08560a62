package exec

import (
	"testing"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// pairsChunk is the shape of the Fig 1b pairs table: seq 0..n-1 plus a
// source and destination column.
func pairsChunk(n int) *storage.Chunk {
	c := storage.NewChunk(storage.Schema{
		{Table: "p", Name: "seq", Kind: types.KindInt},
		{Table: "p", Name: "src", Kind: types.KindInt},
		{Table: "p", Name: "dst", Kind: types.KindInt},
	})
	for i := 0; i < n; i++ {
		c.Cols[0].AppendInt(int64(i))
		c.Cols[1].AppendInt(int64(i * 7 % n))
		c.Cols[2].AppendInt(int64(i * 13 % n))
	}
	return c
}

// seqWindow is p.seq >= ?1 AND p.seq < ?2, the batched pairs window.
func seqWindow() expr.Expr {
	seq := &expr.ColRef{Idx: 0, K: types.KindInt, Name: "p.seq"}
	return &expr.Logic{And: true,
		L: &expr.Cmp{Op: expr.CmpGe, L: seq, R: &expr.Param{Idx: 0, K: types.KindInt}},
		R: &expr.Cmp{Op: expr.CmpLt, L: seq, R: &expr.Param{Idx: 1, K: types.KindInt}},
	}
}

// drainFilter runs Filter(scan) to the end and returns the rows seen.
func drainFilter(tb testing.TB, pred expr.Expr, in *storage.Chunk, params ...types.Value) int {
	ctx := (&Context{Expr: &expr.Context{Params: params}}).orDefault()
	op, err := Build(&plan.Filter{Input: scan(in), Pred: pred}, ctx)
	if err != nil {
		tb.Fatal(err)
	}
	defer op.Close()
	if err := op.Open(ctx); err != nil {
		tb.Fatal(err)
	}
	rows := 0
	for {
		c, err := op.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if c == nil {
			return rows
		}
		rows += c.NumRows()
	}
}

// repeatOp emits the same batch a given number of times.
type repeatOp struct {
	batch *storage.Chunk
	left  int
}

func (o *repeatOp) Schema() storage.Schema { return o.batch.Schema }
func (o *repeatOp) Open(*Context) error    { return nil }
func (o *repeatOp) Close() error           { return nil }

func (o *repeatOp) Next() (*storage.Chunk, error) {
	if o.left == 0 {
		return nil, nil
	}
	o.left--
	return o.batch, nil
}

// openFilter opens a filter over a child that repeats batch.
func openFilter(t *testing.T, pred expr.Expr, batch *storage.Chunk, params ...types.Value) (*filterOp, *repeatOp) {
	t.Helper()
	ctx := (&Context{Expr: &expr.Context{Params: params}}).orDefault()
	f := &plan.Filter{Input: scan(batch), Pred: pred}
	child := &repeatOp{batch: batch}
	op := &filterOp{opBase: newBase(f, []Operator{child}, ctx), f: f}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	return op, child
}

func TestFilterSkipsEmptyBatchesWithoutAllocating(t *testing.T) {
	op, child := openFilter(t, seqWindow(), pairsChunk(DefaultBatchRows), types.NewInt(5000), types.NewInt(5128))
	allocs := testing.AllocsPerRun(10, func() {
		child.left = 50
		if c, err := op.Next(); c != nil || err != nil {
			t.Fatalf("Next = %v, %v; want exhaustion", c, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("skipping 50 batches with no survivors allocated %v times", allocs)
	}
}

func TestFilterPassesWholeBatchesAndGathersPartialOnes(t *testing.T) {
	batch := pairsChunk(DefaultBatchRows)
	op, child := openFilter(t, seqWindow(), batch, types.NewInt(0), types.NewInt(5000))
	child.left = 1
	if c, err := op.Next(); err != nil || c != batch {
		t.Fatalf("a batch that survives whole must pass through unchanged: %v", err)
	}
	op, child = openFilter(t, seqWindow(), batch, types.NewInt(10), types.NewInt(20))
	child.left = 3
	var first *storage.Chunk
	for i := 0; i < 3; i++ {
		c, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c.NumRows() != 10 || c.Cols[0].Ints[0] != 10 || c.Cols[2].Ints[9] != 19*13%DefaultBatchRows {
			t.Fatalf("gathered batch %d wrong:\n%s", i, c)
		}
		if i == 0 {
			first = c
			continue
		}
		// Batches stay put: every partial batch is gathered into the
		// first one's memory (a poisoning build gathers afresh).
		if !poisoning && (c != first || &c.Cols[0].Ints[0] != &first.Cols[0].Ints[0]) {
			t.Fatalf("partial batch %d was not gathered into the filter's one output batch", i)
		}
	}
}

// TestPipelineAllocatesPerQueryNotPerBatch: a scan → filter → project
// pipeline whose filter keeps part of every batch allocates as much
// over 64 batches as over 8. The scan re-points one view, the filter
// gathers into one output batch and the projection reuses one header.
func TestPipelineAllocatesPerQueryNotPerBatch(t *testing.T) {
	if poisoning {
		t.Skip("a poisoning build allocates a fresh batch at every reuse")
	}
	seq := &expr.ColRef{Idx: 0, K: types.KindInt, Name: "p.seq"}
	dst := &expr.ColRef{Idx: 2, K: types.KindInt, Name: "p.dst"}
	allocs := func(batches int) float64 {
		in := pairsChunk(batches * DefaultBatchRows)
		// dst = seq*13 mod n, so about a tenth of every batch survives.
		f := &plan.Filter{Input: scan(in), Pred: &expr.Cmp{Op: expr.CmpLt, L: dst, R: &expr.Param{Idx: 0, K: types.KindInt}}}
		n := &plan.Project{Input: f, Exprs: []expr.Expr{seq, dst}, Sch: storage.Schema{in.Schema[0], in.Schema[2]}}
		params := []types.Value{types.NewInt(int64(len(in.Cols[0].Ints) / 10))}
		return testing.AllocsPerRun(5, func() {
			ctx := (&Context{Expr: &expr.Context{Params: params}}).orDefault()
			op, err := Build(n, ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer op.Close()
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			for rows := 0; ; {
				c, err := op.Next()
				if err != nil {
					t.Fatal(err)
				}
				if c == nil {
					if rows != len(in.Cols[0].Ints)/10 {
						t.Fatalf("%d rows survived, want %d", rows, len(in.Cols[0].Ints)/10)
					}
					return
				}
				rows += c.NumRows()
			}
		})
	}
	if few, many := allocs(8), allocs(64); few != many {
		t.Fatalf("the pipeline allocated %v times over 8 batches and %v over 64", few, many)
	}
}

// BenchmarkFilterSeqWindow filters 64 batches of 1,024 rows down to the
// 128 of one window, the predicate of every Fig 1b batch statement.
func BenchmarkFilterSeqWindow(b *testing.B) {
	in := pairsChunk(64 * DefaultBatchRows)
	pred := seqWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := drainFilter(b, pred, in, types.NewInt(30000), types.NewInt(30128)); n != 128 {
			b.Fatalf("rows = %d, want 128", n)
		}
	}
}
