package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Per-operator re-batching differential: each operator, driven at
// several batch sizes (including batch=1, where every batch boundary is
// a window boundary), must produce exactly what the single-batch run
// produces — every core applied once to its whole input. The point of
// this test is the pipeline operators' re-batching logic and the
// breakers' output windows. LIMIT/OFFSET and UNNEST, whose per-batch
// state machines have no whole-input core to fall back on, are
// additionally pinned to hand-written expected rows below.

// diffBatchSizes are the batch bounds under differential test:
// degenerate, smaller than / coprime to the inputs, and the default.
var diffBatchSizes = []int{1, 2, 3, DefaultBatchRows}

// singleBatch is a batch bound above every test input, so each
// operator sees its whole input in one batch.
const singleBatch = 1_000_000

// diffExec runs n as one batch and at every diffBatchSizes entry,
// requiring render-identical results. It returns the reference.
func diffExec(t *testing.T, name string, n plan.Node) *storage.Chunk {
	t.Helper()
	ref, err := runPlan(n, &Context{BatchRows: singleBatch})
	if err != nil {
		t.Fatalf("%s: single batch: %v", name, err)
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("%s: single-batch output invalid: %v", name, err)
	}
	want := ref.String()
	for _, br := range diffBatchSizes {
		got, err := runPlan(n, &Context{BatchRows: br})
		if err != nil {
			t.Fatalf("%s: batch=%d: %v", name, br, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: batch=%d output invalid: %v", name, br, err)
		}
		if got.String() != want {
			t.Errorf("%s: batch=%d differs from the single-batch run\n--- single batch (%d rows)\n%s\n--- batch=%d (%d rows)\n%s",
				name, br, ref.NumRows(), want, br, got.NumRows(), got.String())
		}
	}
	return ref
}

// rowsOf renders the given columns of c as one "a|b|c" string per row
// (NULL for nulls), the form the hand-written expectations use.
func rowsOf(c *storage.Chunk, cols ...int) []string {
	out := make([]string, c.NumRows())
	for r := range out {
		cells := make([]string, len(cols))
		for i, ci := range cols {
			if c.Cols[ci].IsNull(r) {
				cells[i] = "NULL"
			} else {
				cells[i] = fmt.Sprint(c.Cols[ci].Ints[r])
			}
		}
		out[r] = strings.Join(cells, "|")
	}
	return out
}

// expectRows checks the differential reference itself against
// hand-written rows; diffExec has already tied every batch size to it.
func expectRows(t *testing.T, name string, got *storage.Chunk, cols []int, want []string) {
	t.Helper()
	if want == nil {
		want = []string{}
	}
	if rows := rowsOf(got, cols...); !reflect.DeepEqual(rows, want) {
		t.Errorf("%s: rows\n  got  %v\n  want %v", name, rows, want)
	}
}

func intConst(v int64) expr.Expr { return &expr.Const{Val: types.NewInt(v)} }

func TestPullOperatorDifferential(t *testing.T) {
	base := mkChunk("t", 7, 1, 5, 3, 9, 2, 8, 4, 6, 0, 5, 3)
	left := twoCol("l", [][2]int64{{1, 10}, {2, 20}, {3, 30}, {2, 25}, {4, 40}}, 3)
	right := twoCol("r", [][2]int64{{2, 200}, {3, 300}, {2, 250}, {9, 900}}, 3)
	gt := func(idx int, v int64) expr.Expr {
		return &expr.Cmp{Op: expr.CmpGt,
			L: &expr.ColRef{Idx: idx, K: types.KindInt},
			R: intConst(v)}
	}
	cases := []struct {
		name string
		n    plan.Node
	}{
		{"scan", scan(base)},
		{"filter", &plan.Filter{Input: scan(base), Pred: gt(0, 4)}},
		{"filter-none", &plan.Filter{Input: scan(base), Pred: gt(0, 99)}},
		{"project", &plan.Project{Input: scan(base),
			Exprs: []expr.Expr{&expr.Arith{Op: expr.OpAdd, K: types.KindInt,
				L: &expr.ColRef{Idx: 0, K: types.KindInt},
				R: intConst(100)}},
			Sch: storage.Schema{{Name: "v100", Kind: types.KindInt}}}},
		{"union-all", &plan.SetOp{Op: "UNION", All: true, Left: scan(base), Right: scan(mkChunk("t", 40, 41))}},
		{"union", &plan.SetOp{Op: "UNION", Left: scan(base), Right: scan(mkChunk("t", 5, 40, 3))}},
		{"except", &plan.SetOp{Op: "EXCEPT", Left: scan(base), Right: scan(mkChunk("t", 5, 3))}},
		{"intersect", &plan.SetOp{Op: "INTERSECT", Left: scan(base), Right: scan(mkChunk("t", 5, 3, 99))}},
		{"join-inner", &plan.Join{Type: plan.JoinInner, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}},
		{"join-left", &plan.Join{Type: plan.JoinLeft, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}},
		{"join-cross", &plan.Join{Type: plan.JoinCross, Left: scan(left), Right: scan(right)}},
		{"join-semi", &plan.Join{Type: plan.JoinSemi, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}},
		{"join-anti", &plan.Join{Type: plan.JoinAnti, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}},
		{"aggregate", &plan.Aggregate{Input: scan(left),
			GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
			Aggs: []plan.AggSpec{{Op: plan.AggSum, Arg: &expr.ColRef{Idx: 1, K: types.KindInt},
				Kind: types.KindInt, Name: "s"}},
			Sch: storage.Schema{{Name: "k", Kind: types.KindInt}, {Name: "s", Kind: types.KindInt}}}},
		{"sort", &plan.Sort{Input: scan(base),
			Keys: []plan.SortKey{{Expr: &expr.ColRef{Idx: 0, K: types.KindInt}}}}},
		{"distinct", &plan.Distinct{Input: scan(base)}},
	}
	sh := &plan.Shared{Input: scan(base), Name: "cte"}
	cases = append(cases, struct {
		name string
		n    plan.Node
	}{"shared", &plan.Join{Type: plan.JoinCross, Left: sh, Right: sh}})
	for _, tc := range cases {
		diffExec(t, tc.name, tc.n)
	}
	// A deep pipeline: filter → project → limit over a sorted CTE,
	// exercising re-batching across several pipeline stages at once.
	deep := &plan.Limit{
		Count: intConst(4),
		Input: &plan.Project{
			Exprs: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
			Sch:   storage.Schema{{Name: "v", Kind: types.KindInt}},
			Input: &plan.Filter{
				Pred:  gt(0, 2),
				Input: &plan.Sort{Input: scan(base), Keys: []plan.SortKey{{Expr: &expr.ColRef{Idx: 0, K: types.KindInt}}}},
			},
		},
	}
	expectRows(t, "deep-pipeline", diffExec(t, "deep-pipeline", deep), []int{0}, []string{"3", "3", "4", "5"})
}

// TestPullLimitExpectedRows pins LIMIT/OFFSET to hand-written rows at
// every batch size: skips and quotas that start, end and span batch
// boundaries, zero quotas, and offsets past the input.
func TestPullLimitExpectedRows(t *testing.T) {
	base := mkChunk("t", 7, 1, 5, 3, 9, 2, 8, 4, 6, 0, 5, 3)
	cases := []struct {
		name        string
		count, skip expr.Expr
		want        []string
	}{
		{"limit", intConst(5), nil, []string{"7", "1", "5", "3", "9"}},
		{"limit-offset", intConst(4), intConst(3), []string{"3", "9", "2", "8"}},
		{"limit-one-offset-one", intConst(1), intConst(1), []string{"1"}},
		{"limit-zero", intConst(0), nil, nil},
		{"limit-zero-offset", intConst(0), intConst(2), nil},
		{"limit-exact", intConst(12), nil, []string{"7", "1", "5", "3", "9", "2", "8", "4", "6", "0", "5", "3"}},
		{"limit-over", intConst(99), intConst(10), []string{"5", "3"}},
		{"offset-only", nil, intConst(9), []string{"0", "5", "3"}},
		{"offset-all", nil, intConst(12), nil},
		{"offset-past-end", nil, intConst(99), nil},
		{"limit-offset-past-end", intConst(3), intConst(99), nil},
	}
	for _, tc := range cases {
		n := &plan.Limit{Input: scan(base), Count: tc.count, Skip: tc.skip}
		expectRows(t, tc.name, diffExec(t, tc.name, n), []int{0}, tc.want)
	}
}

// pathOf builds a (s, d) edge path from consecutive vertex ids.
func pathOf(vs ...int64) *types.Path {
	p := &types.Path{Cols: []string{"s", "d"}, Kinds: []types.Kind{types.KindInt, types.KindInt}}
	for i := 0; i+1 < len(vs); i++ {
		p.Rows = append(p.Rows, []types.Value{types.NewInt(vs[i]), types.NewInt(vs[i+1])})
	}
	return p
}

// TestPullUnnestExpectedRows pins UNNEST to hand-written rows at every
// batch size: inner and OUTER forms, WITH ORDINALITY, NULL and empty
// paths, and a path longer than the small batch bounds, so one input
// row's expansion spans several output batches.
func TestPullUnnestExpectedRows(t *testing.T) {
	in := storage.NewChunk(storage.Schema{
		{Table: "t", Name: "id", Kind: types.KindInt},
		{Table: "t", Name: "p", Kind: types.KindPath},
	})
	for _, r := range []struct {
		id int64
		p  *types.Path
	}{
		{1, pathOf(10, 11, 12)},             // 2 edges
		{2, nil},                            // NULL path
		{3, pathOf(30)},                     // empty path
		{4, pathOf(40, 41, 42, 43, 44, 45)}, // 5 edges: longer than batch 1, 2, 3
		{5, nil},                            // trailing NULL: OUTER emits after the long path
	} {
		in.Cols[0].AppendInt(r.id)
		if r.p == nil {
			in.Cols[1].AppendNull()
		} else {
			in.Cols[1].AppendPath(r.p)
		}
	}
	pathSch := storage.Schema{{Table: "u", Name: "s", Kind: types.KindInt}, {Table: "u", Name: "d", Kind: types.KindInt}}
	unnest := func(outer, ord bool) *plan.Unnest {
		sch := append(append(storage.Schema{}, in.Schema...), pathSch...)
		if ord {
			sch = append(sch, storage.ColMeta{Table: "u", Name: "ord", Kind: types.KindInt})
		}
		return &plan.Unnest{
			Input:      scan(in),
			PathExpr:   &expr.ColRef{Idx: 1, K: types.KindPath},
			PathSchema: pathSch,
			Ordinality: ord,
			Outer:      outer,
			Sch:        sch,
		}
	}
	// Columns rendered: id, s, d[, ord] (the path column itself is
	// carried through unchanged and covered by diffExec's full render).
	inner := []string{
		"1|10|11|1", "1|11|12|2",
		"4|40|41|1", "4|41|42|2", "4|42|43|3", "4|43|44|4", "4|44|45|5",
	}
	outer := []string{
		"1|10|11|1", "1|11|12|2",
		"2|NULL|NULL|NULL",
		"3|NULL|NULL|NULL",
		"4|40|41|1", "4|41|42|2", "4|42|43|3", "4|43|44|4", "4|44|45|5",
		"5|NULL|NULL|NULL",
	}
	dropOrd := func(rows []string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r[:strings.LastIndex(r, "|")]
		}
		return out
	}
	expectRows(t, "unnest-inner-ord", diffExec(t, "unnest-inner-ord", unnest(false, true)), []int{0, 2, 3, 4}, inner)
	expectRows(t, "unnest-outer-ord", diffExec(t, "unnest-outer-ord", unnest(true, true)), []int{0, 2, 3, 4}, outer)
	expectRows(t, "unnest-inner", diffExec(t, "unnest-inner", unnest(false, false)), []int{0, 2, 3}, dropOrd(inner))
	expectRows(t, "unnest-outer", diffExec(t, "unnest-outer", unnest(true, false)), []int{0, 2, 3}, dropOrd(outer))

	// UNNEST under a LIMIT that cuts the long path mid-expansion.
	cut := &plan.Limit{Input: unnest(false, true), Count: intConst(3), Skip: intConst(3)}
	expectRows(t, "unnest-limit", diffExec(t, "unnest-limit", cut), []int{0, 2, 3, 4},
		[]string{"4|41|42|2", "4|42|43|3", "4|43|44|4"})
}

// TestPullBoundedIntermediates proves the executor's memory claim:
// with a batch bound in force, no pipeline operator ever emits a batch
// above the bound — intermediate state stays O(BatchRows × pipeline
// depth), independent of input size.
func TestPullBoundedIntermediates(t *testing.T) {
	const total, bound = 4096, 32
	vals := make([]int64, total)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	pipeline := &plan.Filter{
		Pred: &expr.Cmp{Op: expr.CmpGt,
			L: &expr.ColRef{Idx: 0, K: types.KindInt},
			R: &expr.Const{Val: types.NewInt(-1)}}, // pass-through: max pressure
		Input: &plan.Project{
			Exprs: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
			Sch:   storage.Schema{{Name: "v", Kind: types.KindInt}},
			Input: scan(mkChunk("t", vals...)),
		},
	}
	maxBatch := 0
	prev := SetBatchObserver(func(op string, rows int) {
		if rows > maxBatch {
			maxBatch = rows
		}
	})
	defer SetBatchObserver(prev)
	out, err := runPlan(pipeline, &Context{BatchRows: bound})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != total {
		t.Fatalf("lost rows: %d of %d", out.NumRows(), total)
	}
	if maxBatch == 0 {
		t.Fatal("batch observer saw nothing; operators did not run")
	}
	if maxBatch > bound {
		t.Fatalf("operator emitted a %d-row batch, above the %d bound", maxBatch, bound)
	}
}

// TestPullLimitStopsPulling proves early termination: once a Limit's
// quota fills, it stops pulling its child, so the operators upstream
// only ever produce the prefix the query needs.
func TestPullLimitStopsPulling(t *testing.T) {
	const total, bound, want = 1000, 10, 25
	vals := make([]int64, total)
	for i := range vals {
		vals[i] = int64(i)
	}
	n := &plan.Limit{
		Input: scan(mkChunk("t", vals...)),
		Count: &expr.Const{Val: types.NewInt(want)},
	}
	seen := 0
	prev := SetBatchObserver(func(op string, rows int) { seen += rows })
	defer SetBatchObserver(prev)
	out, err := runPlan(n, &Context{BatchRows: bound})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != want {
		t.Fatalf("limit returned %d rows, want %d", out.NumRows(), want)
	}
	// The observer sees scan batches plus limit batches. The scan must
	// have stopped near the quota (one bound of slack for the in-flight
	// batch), nowhere near the full input.
	if ceiling := 2 * (want + bound); seen > ceiling {
		t.Fatalf("operators emitted %d rows total for a LIMIT %d (ceiling %d): limit did not stop pulling", seen, want, ceiling)
	}
}
