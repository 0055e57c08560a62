package exec

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// mkChunk builds a single-int-column chunk from values (nil entries
// impossible; use addNull for NULLs).
func mkChunk(name string, vals ...int64) *storage.Chunk {
	c := storage.NewChunk(storage.Schema{{Table: name, Name: "v", Kind: types.KindInt}})
	for _, v := range vals {
		c.AppendRow([]types.Value{types.NewInt(v)})
	}
	return c
}

func scan(c *storage.Chunk) plan.Node { return &plan.ChunkScan{Chunk: c, Name: "t"} }

// runPlan runs a plan to completion and returns the whole result as
// one chunk: Build, Open, drain, Close. With a trace attached every
// operator records a span carrying its Describe line, wall time and
// output row count, nested to mirror the plan tree.
func runPlan(n plan.Node, ctx *Context) (*storage.Chunk, error) {
	ctx = ctx.orDefault()
	op, err := Build(n, ctx)
	if err != nil {
		return nil, err
	}
	defer op.Close()
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	return drainInput(op)
}

func execute(t *testing.T, n plan.Node) *storage.Chunk {
	t.Helper()
	out, err := runPlan(n, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestExecFilter(t *testing.T) {
	in := mkChunk("t", 1, 2, 3, 4)
	f := &plan.Filter{Input: scan(in), Pred: &expr.Cmp{
		Op: expr.CmpGt,
		L:  &expr.ColRef{Idx: 0, K: types.KindInt},
		R:  &expr.Const{Val: types.NewInt(2)},
	}}
	out := execute(t, f)
	if out.NumRows() != 2 || out.Cols[0].Ints[0] != 3 {
		t.Fatalf("filter output wrong:\n%s", out)
	}
}

func TestExecLimitOffset(t *testing.T) {
	in := mkChunk("t", 1, 2, 3, 4, 5)
	l := &plan.Limit{Input: scan(in),
		Count: &expr.Const{Val: types.NewInt(2)},
		Skip:  &expr.Const{Val: types.NewInt(3)}}
	out := execute(t, l)
	if out.NumRows() != 2 || out.Cols[0].Ints[0] != 4 {
		t.Fatalf("limit output wrong:\n%s", out)
	}
	// Offset beyond the input.
	l = &plan.Limit{Input: scan(in), Skip: &expr.Const{Val: types.NewInt(99)}}
	if execute(t, l).NumRows() != 0 {
		t.Fatal("offset past end must be empty")
	}
}

// twoCol builds a (k, v) chunk from pairs.
func twoCol(name string, pairs [][2]int64, nullKeyRows ...int) *storage.Chunk {
	c := storage.NewChunk(storage.Schema{
		{Table: name, Name: "k", Kind: types.KindInt},
		{Table: name, Name: "v", Kind: types.KindInt},
	})
	nulls := map[int]bool{}
	for _, r := range nullKeyRows {
		nulls[r] = true
	}
	for i, p := range pairs {
		k := types.NewInt(p[0])
		if nulls[i] {
			k = types.NewNull(types.KindInt)
		}
		c.AppendRow([]types.Value{k, types.NewInt(p[1])})
	}
	return c
}

func eqCond(l, r int) expr.Expr {
	return &expr.Cmp{Op: expr.CmpEq,
		L: &expr.ColRef{Idx: l, K: types.KindInt},
		R: &expr.ColRef{Idx: r, K: types.KindInt}}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := twoCol("l", [][2]int64{{1, 10}, {0, 20}, {2, 30}}, 1)
	right := twoCol("r", [][2]int64{{1, 100}, {0, 200}}, 1)
	j := &plan.Join{Type: plan.JoinInner, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}
	out := execute(t, j)
	// Only k=1 matches; the NULL keys on both sides match nothing.
	if out.NumRows() != 1 || out.Cols[1].Ints[0] != 10 || out.Cols[3].Ints[0] != 100 {
		t.Fatalf("join output wrong:\n%s", out)
	}
}

func TestLeftJoinNullExtension(t *testing.T) {
	left := twoCol("l", [][2]int64{{1, 10}, {5, 50}})
	right := twoCol("r", [][2]int64{{1, 100}})
	j := &plan.Join{Type: plan.JoinLeft, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}
	out := execute(t, j)
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", out.NumRows(), out)
	}
	if !out.Cols[2].IsNull(1) || !out.Cols[3].IsNull(1) {
		t.Fatalf("unmatched left row must be null-extended:\n%s", out)
	}
}

// TestPropertyHashJoinMatchesNestedLoop compares the equi hash join
// against a brute-force nested loop on random inputs.
func TestPropertyHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		randSide := func(name string) *storage.Chunk {
			n := r.Intn(30)
			pairs := make([][2]int64, n)
			var nulls []int
			for i := range pairs {
				pairs[i] = [2]int64{int64(r.Intn(6)), int64(r.Intn(100))}
				if r.Intn(10) == 0 {
					nulls = append(nulls, i)
				}
			}
			return twoCol(name, pairs, nulls...)
		}
		left, right := randSide("l"), randSide("r")
		j := &plan.Join{Type: plan.JoinInner, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}
		out, err := runPlan(j, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		type row struct{ lk, lv, rk, rv int64 }
		var want []row
		for a := 0; a < left.NumRows(); a++ {
			if left.Cols[0].IsNull(a) {
				continue
			}
			for b := 0; b < right.NumRows(); b++ {
				if right.Cols[0].IsNull(b) {
					continue
				}
				if left.Cols[0].Ints[a] == right.Cols[0].Ints[b] {
					want = append(want, row{left.Cols[0].Ints[a], left.Cols[1].Ints[a],
						right.Cols[0].Ints[b], right.Cols[1].Ints[b]})
				}
			}
		}
		if out.NumRows() != len(want) {
			return false
		}
		var got []row
		for i := 0; i < out.NumRows(); i++ {
			got = append(got, row{out.Cols[0].Ints[i], out.Cols[1].Ints[i],
				out.Cols[2].Ints[i], out.Cols[3].Ints[i]})
		}
		less := func(s []row) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i].lk != s[j].lk {
					return s[i].lk < s[j].lk
				}
				if s[i].lv != s[j].lv {
					return s[i].lv < s[j].lv
				}
				return s[i].rv < s[j].rv
			}
		}
		sort.Slice(got, less(got))
		sort.Slice(want, less(want))
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossJoinCardinality(t *testing.T) {
	l := mkChunk("l", 1, 2, 3)
	r := mkChunk("r", 7, 8)
	j := &plan.Join{Type: plan.JoinCross, Left: scan(l), Right: scan(r)}
	out := execute(t, j)
	if out.NumRows() != 6 {
		t.Fatalf("cross join rows = %d", out.NumRows())
	}
}

func TestSortStability(t *testing.T) {
	// Two key columns; sorting only on the first must preserve the
	// input order of equal keys (stable sort).
	c := twoCol("t", [][2]int64{{2, 1}, {1, 2}, {2, 3}, {1, 4}})
	s := &plan.Sort{Input: scan(c), Keys: []plan.SortKey{{
		Expr: &expr.ColRef{Idx: 0, K: types.KindInt},
	}}}
	out := execute(t, s)
	wantV := []int64{2, 4, 1, 3}
	for i, w := range wantV {
		if out.Cols[1].Ints[i] != w {
			t.Fatalf("row %d: v = %d, want %d\n%s", i, out.Cols[1].Ints[i], w, out)
		}
	}
}

func TestDistinctOnPairs(t *testing.T) {
	c := twoCol("t", [][2]int64{{1, 1}, {1, 1}, {1, 2}, {1, 1}})
	out := execute(t, &plan.Distinct{Input: scan(c)})
	if out.NumRows() != 2 {
		t.Fatalf("distinct rows = %d\n%s", out.NumRows(), out)
	}
}

func TestSharedNodeExecutesOnce(t *testing.T) {
	c := mkChunk("t", 1, 2, 3)
	sh := &plan.Shared{Input: scan(c), Name: "cte"}
	j := &plan.Join{Type: plan.JoinCross, Left: sh, Right: sh}
	// The CTE body must be scanned once however its two references are
	// drained: windowed at a tiny batch, or as one batch.
	for _, br := range []int{2, singleBatch} {
		scans := 0
		prev := SetBatchObserver(func(op string, rows int) {
			if strings.HasPrefix(op, "ChunkScan") {
				scans += rows
			}
		})
		ctx := &Context{BatchRows: br}
		out, err := runPlan(j, ctx)
		SetBatchObserver(prev)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 9 {
			t.Fatalf("batch=%d: rows = %d", br, out.NumRows())
		}
		if len(ctx.shared) != 1 {
			t.Fatalf("batch=%d: shared cache entries = %d, want 1", br, len(ctx.shared))
		}
		if scans != 3 {
			t.Fatalf("batch=%d: CTE body scanned %d rows, want 3 (executed once)", br, scans)
		}
	}
}

func TestEncodeKeyDisambiguates(t *testing.T) {
	// "ab","c" must not collide with "a","bc" (length-prefixed).
	a := storage.NewColumn(types.KindString, 0)
	a.AppendString("ab")
	a.AppendString("a")
	b := storage.NewColumn(types.KindString, 0)
	b.AppendString("c")
	b.AppendString("bc")
	k0 := encodeKey(encodeKey(nil, a, 0), b, 0)
	k1 := encodeKey(encodeKey(nil, a, 1), b, 1)
	if string(k0) == string(k1) {
		t.Fatal("key encoding collides across string boundaries")
	}
	// NULL differs from zero.
	n := storage.NewColumn(types.KindInt, 0)
	n.AppendNull()
	n.AppendInt(0)
	if string(encodeKey(nil, n, 0)) == string(encodeKey(nil, n, 1)) {
		t.Fatal("NULL collides with 0")
	}
	// Every NaN is one key whatever its payload, as types.Compare calls
	// every NaN equal.
	f := storage.NewColumn(types.KindFloat, 0)
	f.AppendFloat(math.NaN())
	f.AppendFloat(-math.NaN())
	if string(encodeKey(nil, f, 0)) != string(encodeKey(nil, f, 1)) {
		t.Fatal("NaN payloads split one key")
	}
}

func TestGroupByOnEncodedKeys(t *testing.T) {
	c := twoCol("t", [][2]int64{{1, 10}, {2, 20}, {1, 30}})
	agg := &plan.Aggregate{
		Input:   scan(c),
		GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
		Aggs: []plan.AggSpec{{Op: plan.AggSum, Arg: &expr.ColRef{Idx: 1, K: types.KindInt},
			Kind: types.KindInt, Name: "s"}},
		Sch: storage.Schema{
			{Name: "k", Kind: types.KindInt},
			{Name: "s", Kind: types.KindInt},
		},
	}
	out := execute(t, agg)
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	sums := map[int64]int64{}
	for i := 0; i < out.NumRows(); i++ {
		sums[out.Cols[0].Ints[i]] = out.Cols[1].Ints[i]
	}
	if sums[1] != 40 || sums[2] != 20 {
		t.Fatalf("sums = %v", sums)
	}
}
