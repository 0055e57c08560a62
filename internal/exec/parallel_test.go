package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// The parallel relational operators must produce results bit-identical
// to their sequential counterparts. These tests execute every
// parallelized operator twice over the same random input — once with
// the sequential path forced (parallelism 1) and once over a worker
// pool with the size gate lowered — and require byte-identical
// renderings. Run under -race they also serve as the data-race check
// for the partitioned implementations.

// forceParallel lowers the operator gate for the duration of a test.
func forceParallel(t *testing.T) {
	t.Helper()
	prev := SetMinParallelRows(1)
	t.Cleanup(func() { SetMinParallelRows(prev) })
}

// randColumn builds a column of the given kind with a small value
// domain (to force key collisions) and ~15% NULLs.
func randColumn(r *rand.Rand, kind types.Kind, n int) *storage.Column {
	c := storage.NewColumn(kind, n)
	for i := 0; i < n; i++ {
		if r.Intn(100) < 15 {
			c.AppendNull()
			continue
		}
		switch kind {
		case types.KindFloat:
			c.AppendFloat(float64(r.Intn(8)) + 0.25*float64(r.Intn(4)))
		case types.KindString:
			c.AppendString(fmt.Sprintf("s%d", r.Intn(6)))
		default:
			c.AppendInt(int64(r.Intn(10)))
		}
	}
	return c
}

var testKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString}

// randChunk builds an n-row chunk with 1-4 randomly typed columns.
func randChunk(r *rand.Rand, name string, n int) *storage.Chunk {
	ncols := 1 + r.Intn(4)
	sch := make(storage.Schema, ncols)
	cols := make([]*storage.Column, ncols)
	for j := 0; j < ncols; j++ {
		k := testKinds[r.Intn(len(testKinds))]
		sch[j] = storage.ColMeta{Table: name, Name: fmt.Sprintf("c%d", j), Kind: k}
		cols[j] = randColumn(r, k, n)
	}
	return &storage.Chunk{Schema: sch, Cols: cols}
}

// runBoth executes the plan sequentially and in parallel and asserts
// byte-identical output renderings.
func runBoth(t *testing.T, seed int64, n plan.Node) {
	t.Helper()
	seqCtx := &Context{Parallelism: 1}
	seq, err := runPlan(n, seqCtx)
	if err != nil {
		t.Fatalf("seed %d: sequential: %v", seed, err)
	}
	for _, workers := range []int{2, 3, 8} {
		parCtx := &Context{Parallelism: workers}
		got, err := runPlan(n, parCtx)
		if err != nil {
			t.Fatalf("seed %d: parallel(%d): %v", seed, workers, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: parallel(%d) output invalid: %v", seed, workers, err)
		}
		if got.String() != seq.String() {
			t.Fatalf("seed %d: parallel(%d) diverges from sequential:\n--- sequential\n%s--- parallel\n%s",
				seed, workers, seq.String(), got.String())
		}
	}
}

func TestParallelDistinctEquivalence(t *testing.T) {
	forceParallel(t)
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randChunk(r, "t", 20+r.Intn(300))
		runBoth(t, seed, &plan.Distinct{Input: &plan.ChunkScan{Chunk: in, Name: "t"}})
	}
}

func TestParallelSortEquivalence(t *testing.T) {
	forceParallel(t)
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randChunk(r, "t", 20+r.Intn(500))
		nkeys := 1 + r.Intn(len(in.Cols))
		keys := make([]plan.SortKey, nkeys)
		for i := range keys {
			j := r.Intn(len(in.Cols))
			keys[i] = plan.SortKey{
				Expr:       &expr.ColRef{Idx: j, K: in.Schema[j].Kind},
				Desc:       r.Intn(2) == 0,
				NullsFirst: r.Intn(3) - 1,
			}
		}
		runBoth(t, seed, &plan.Sort{Input: &plan.ChunkScan{Chunk: in, Name: "t"}, Keys: keys})
	}
}

func TestParallelSetOpEquivalence(t *testing.T) {
	forceParallel(t)
	ops := []string{"UNION", "EXCEPT", "INTERSECT"}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Both sides share a schema: build left, then right with the
		// same kinds so rows can actually collide.
		left := randChunk(r, "l", 10+r.Intn(200))
		nr := 10 + r.Intn(200)
		rightCols := make([]*storage.Column, len(left.Cols))
		for j := range rightCols {
			rightCols[j] = randColumn(r, left.Schema[j].Kind, nr)
		}
		right := &storage.Chunk{Schema: left.Schema, Cols: rightCols}
		op := ops[r.Intn(len(ops))]
		runBoth(t, seed, &plan.SetOp{
			Op:    op,
			All:   r.Intn(2) == 0,
			Left:  &plan.ChunkScan{Chunk: left, Name: "l"},
			Right: &plan.ChunkScan{Chunk: right, Name: "r"},
		})
	}
}

// aggSpecFor derives a valid AggSpec over column j of the input.
func aggSpecFor(r *rand.Rand, in *storage.Chunk, j int) plan.AggSpec {
	argKind := in.Schema[j].Kind
	arg := &expr.ColRef{Idx: j, K: argKind}
	ops := []plan.AggOp{plan.AggCountStar, plan.AggCount, plan.AggMin, plan.AggMax}
	if argKind != types.KindString {
		ops = append(ops, plan.AggSum, plan.AggAvg)
	}
	op := ops[r.Intn(len(ops))]
	spec := plan.AggSpec{Op: op, Name: "a"}
	switch op {
	case plan.AggCountStar:
		spec.Kind = types.KindInt
	case plan.AggCount:
		spec.Arg = arg
		spec.Kind = types.KindInt
		spec.Distinct = r.Intn(3) == 0
	case plan.AggAvg:
		spec.Arg = arg
		spec.Kind = types.KindFloat
		spec.Distinct = r.Intn(3) == 0
	default:
		spec.Arg = arg
		spec.Kind = argKind
		spec.Distinct = op == plan.AggSum && r.Intn(3) == 0
	}
	return spec
}

func TestParallelAggregateEquivalence(t *testing.T) {
	forceParallel(t)
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randChunk(r, "t", 20+r.Intn(400))
		ngroup := r.Intn(3) // 0 = global aggregate
		groupBy := make([]expr.Expr, 0, ngroup)
		sch := storage.Schema{}
		for i := 0; i < ngroup; i++ {
			j := r.Intn(len(in.Cols))
			groupBy = append(groupBy, &expr.ColRef{Idx: j, K: in.Schema[j].Kind})
			sch = append(sch, storage.ColMeta{Name: fmt.Sprintf("g%d", i), Kind: in.Schema[j].Kind})
		}
		naggs := 1 + r.Intn(4)
		aggs := make([]plan.AggSpec, 0, naggs)
		for i := 0; i < naggs; i++ {
			spec := aggSpecFor(r, in, r.Intn(len(in.Cols)))
			spec.Name = fmt.Sprintf("a%d", i)
			aggs = append(aggs, spec)
			sch = append(sch, storage.ColMeta{Name: spec.Name, Kind: spec.Kind})
		}
		runBoth(t, seed, &plan.Aggregate{
			Input:   &plan.ChunkScan{Chunk: in, Name: "t"},
			GroupBy: groupBy,
			Aggs:    aggs,
			Sch:     sch,
		})
	}
}

func TestParallelJoinEquivalence(t *testing.T) {
	forceParallel(t)
	jtypes := []plan.JoinType{plan.JoinInner, plan.JoinLeft, plan.JoinSemi, plan.JoinAnti}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		left := randChunk(r, "l", 10+r.Intn(250))
		right := randChunk(r, "r", 10+r.Intn(250))
		nLeft := len(left.Schema)
		// One or two equality pairs on matching kinds, if available.
		var conjuncts []expr.Expr
		for lj := range left.Cols {
			for rj := range right.Cols {
				if left.Schema[lj].Kind == right.Schema[rj].Kind && r.Intn(3) == 0 {
					conjuncts = append(conjuncts, &expr.Cmp{
						Op: expr.CmpEq,
						L:  &expr.ColRef{Idx: lj, K: left.Schema[lj].Kind},
						R:  &expr.ColRef{Idx: nLeft + rj, K: right.Schema[rj].Kind},
					})
				}
			}
		}
		if len(conjuncts) == 0 {
			lj, rj := r.Intn(len(left.Cols)), r.Intn(len(right.Cols))
			if left.Schema[lj].Kind != right.Schema[rj].Kind {
				continue // rare: no hashable pair; skip this seed
			}
			conjuncts = append(conjuncts, &expr.Cmp{
				Op: expr.CmpEq,
				L:  &expr.ColRef{Idx: lj, K: left.Schema[lj].Kind},
				R:  &expr.ColRef{Idx: nLeft + rj, K: right.Schema[rj].Kind},
			})
		}
		if r.Intn(2) == 0 {
			// Residual predicate over the concatenated schema.
			lj, rj := r.Intn(len(left.Cols)), r.Intn(len(right.Cols))
			if left.Schema[lj].Kind == right.Schema[rj].Kind {
				conjuncts = append(conjuncts, &expr.Cmp{
					Op: expr.CmpLt,
					L:  &expr.ColRef{Idx: lj, K: left.Schema[lj].Kind},
					R:  &expr.ColRef{Idx: nLeft + rj, K: right.Schema[rj].Kind},
				})
			}
		}
		runBoth(t, seed, &plan.Join{
			Type:  jtypes[r.Intn(len(jtypes))],
			Left:  &plan.ChunkScan{Chunk: left, Name: "l"},
			Right: &plan.ChunkScan{Chunk: right, Name: "r"},
			On:    expr.AndAll(conjuncts),
		})
	}
}

func TestParallelCrossJoinEquivalence(t *testing.T) {
	forceParallel(t)
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		left := randChunk(r, "l", 5+r.Intn(40))
		right := randChunk(r, "r", 5+r.Intn(40))
		runBoth(t, seed, &plan.Join{
			Type:  plan.JoinCross,
			Left:  &plan.ChunkScan{Chunk: left, Name: "l"},
			Right: &plan.ChunkScan{Chunk: right, Name: "r"},
		})
	}
}

// nanChunk builds a (g BIGINT, x DOUBLE) chunk whose float column is
// laced with NaN, ±Inf and -0 — the values that historically broke
// Compare's totality and with it the parallel/sequential equivalence
// of ORDER BY and MIN/MAX.
func nanChunk(r *rand.Rand, n int) *storage.Chunk {
	sch := storage.Schema{
		{Table: "t", Name: "g", Kind: types.KindInt},
		{Table: "t", Name: "x", Kind: types.KindFloat},
	}
	g := storage.NewColumn(types.KindInt, n)
	x := storage.NewColumn(types.KindFloat, n)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for i := 0; i < n; i++ {
		g.AppendInt(int64(r.Intn(4)))
		switch r.Intn(4) {
		case 0:
			x.AppendFloat(specials[r.Intn(len(specials))])
		case 1:
			x.AppendNull()
		default:
			x.AppendFloat(float64(r.Intn(20)))
		}
	}
	return &storage.Chunk{Schema: sch, Cols: []*storage.Column{g, x}}
}

// TestParallelNaNTotalOrder pins the NaN regression: sorting and
// grouped MIN/MAX over a NaN-laced float column must stay bit-identical
// across worker counts (requires types.Compare to be a total order).
func TestParallelNaNTotalOrder(t *testing.T) {
	forceParallel(t)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := nanChunk(r, 30+r.Intn(300))
		runBoth(t, seed, &plan.Sort{
			Input: &plan.ChunkScan{Chunk: in, Name: "t"},
			Keys: []plan.SortKey{
				{Expr: &expr.ColRef{Idx: 1, K: types.KindFloat}, NullsFirst: -1},
				{Expr: &expr.ColRef{Idx: 0, K: types.KindInt}},
			},
		})
		runBoth(t, seed, &plan.Aggregate{
			Input:   &plan.ChunkScan{Chunk: in, Name: "t"},
			GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
			Aggs: []plan.AggSpec{
				{Op: plan.AggMin, Arg: &expr.ColRef{Idx: 1, K: types.KindFloat}, Kind: types.KindFloat, Name: "mn"},
				{Op: plan.AggMax, Arg: &expr.ColRef{Idx: 1, K: types.KindFloat}, Kind: types.KindFloat, Name: "mx"},
				{Op: plan.AggCount, Arg: &expr.ColRef{Idx: 1, K: types.KindFloat}, Kind: types.KindInt, Name: "c"},
			},
			Sch: storage.Schema{
				{Name: "g", Kind: types.KindInt},
				{Name: "mn", Kind: types.KindFloat},
				{Name: "mx", Kind: types.KindFloat},
				{Name: "c", Kind: types.KindInt},
			},
		})
	}
}

// TestParallelMergeSortMatchesStable pins the parallel merge sort
// against sort.SliceStable on adversarial tie-heavy inputs.
func TestParallelMergeSortMatchesStable(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(2000)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(5) // heavy ties: stability matters
		}
		less := func(a, b int) bool { return vals[a] < vals[b] }
		iota := func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out
		}
		want := iota(n)
		stableSortIdx(want, less)
		for _, workers := range []int{2, 3, 7, 16} {
			got := iota(n)
			parallelMergeSort(got, less, workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d: idx[%d] = %d, want %d", seed, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func stableSortIdx(idx []int, less func(a, b int) bool) {
	parallelMergeSort(idx, less, 1) // workers=1 falls back to sort.SliceStable
}
