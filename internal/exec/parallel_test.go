package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"graphsql/internal/expr"
	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/testutil"
	"graphsql/internal/types"
)

// Every relational breaker core — join, GROUP BY, DISTINCT, the
// deduplicating set operations, ORDER BY — runs one algorithm at every
// worker count. These tests run each core over random inputs at 1, 2, 3
// and 8 workers, with the size gates open so every count engages, and
// compare every run with the row-at-a-time oracle in internal/testutil,
// which shares no code with the cores. Run under -race they are also
// the data-race check for the partitioned cores.

// oracleWorkers are the worker counts every core is checked at.
var oracleWorkers = []int{1, 2, 3, 8}

// openGates opens every size gate for the duration of a test.
func openGates(t testing.TB) {
	t.Helper()
	prev := par.OpenGates(true)
	t.Cleanup(func() { par.OpenGates(prev) })
}

// chunkRows boxes every row of c, the oracle's input form.
func chunkRows(c *storage.Chunk) [][]types.Value {
	rows := make([][]types.Value, c.NumRows())
	for i := range rows {
		rows[i] = c.Row(i)
	}
	return rows
}

// renderRows renders one line per row; floats render exactly, so -0
// and 0 differ.
func renderRows(rows [][]types.Value) string {
	var b strings.Builder
	for _, row := range rows {
		for j, v := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkOracle runs n at each worker count and requires output rendering
// identically to the oracle's rows.
func checkOracle(t testing.TB, label string, n plan.Node, want [][]types.Value, workers ...int) {
	t.Helper()
	ref := renderRows(want)
	for _, w := range workers {
		got, err := runPlan(n, &Context{Parallelism: w})
		if err != nil {
			t.Fatalf("%s: %d workers: %v", label, w, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %d workers: output invalid: %v", label, w, err)
		}
		if g := renderRows(chunkRows(got)); g != ref {
			t.Fatalf("%s: %d workers diverge from the oracle:\n--- oracle\n%s--- engine\n%s", label, w, ref, g)
		}
	}
}

// picker is the randomness the input generators draw from: a seeded
// *rand.Rand in the randomized tests, the fuzz input in
// FuzzBreakerCores.
type picker interface{ Intn(n int) int }

// specialFloats are the values that break naive float keys and orders:
// two NaN payloads, the infinities and both zeros.
var specialFloats = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
}

// randColumn builds a column of the given kind with a small value
// domain (to force key collisions), ~15% NULLs and, for floats, a share
// of specialFloats.
func randColumn(r picker, kind types.Kind, n int) *storage.Column {
	c := storage.NewColumn(kind, n)
	for i := 0; i < n; i++ {
		if r.Intn(100) < 15 {
			c.AppendNull()
			continue
		}
		switch kind {
		case types.KindFloat:
			if r.Intn(10) == 0 {
				c.AppendFloat(specialFloats[r.Intn(len(specialFloats))])
			} else {
				c.AppendFloat(float64(r.Intn(8)) + 0.25*float64(r.Intn(4)))
			}
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
func randChunk(r picker, name string, n int) *storage.Chunk {
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

// randLike builds an n-row chunk with c's column kinds, so rows of the
// two can collide.
func randLike(r picker, c *storage.Chunk, name string, n int) *storage.Chunk {
	sch := make(storage.Schema, len(c.Schema))
	cols := make([]*storage.Column, len(c.Schema))
	for j, m := range c.Schema {
		sch[j] = storage.ColMeta{Table: name, Name: m.Name, Kind: m.Kind}
		cols[j] = randColumn(r, m.Kind, n)
	}
	return &storage.Chunk{Schema: sch, Cols: cols}
}

func distinctCase(in *storage.Chunk) (plan.Node, [][]types.Value) {
	return &plan.Distinct{Input: scan(in)}, testutil.OracleDistinct(chunkRows(in))
}

func setOpCase(op string, all bool, left, right *storage.Chunk) (plan.Node, [][]types.Value) {
	n := &plan.SetOp{Op: op, All: all, Left: scan(left), Right: scan(right)}
	return n, testutil.OracleSetOp(op, all, chunkRows(left), chunkRows(right))
}

// sortCase orders in by 1..ncols random keys with random direction and
// NULL placement.
func sortCase(r picker, in *storage.Chunk) (plan.Node, [][]types.Value) {
	nkeys := 1 + r.Intn(len(in.Cols))
	keys := make([]plan.SortKey, nkeys)
	okeys := make([]testutil.OracleSortKey, nkeys)
	for i := range keys {
		j := r.Intn(len(in.Cols))
		keys[i] = plan.SortKey{
			Expr:       &expr.ColRef{Idx: j, K: in.Schema[j].Kind},
			Desc:       r.Intn(2) == 0,
			NullsFirst: r.Intn(3) - 1,
		}
		okeys[i] = testutil.OracleSortKey{Col: j, Desc: keys[i].Desc, NullsFirst: keys[i].NullsFirst}
	}
	return &plan.Sort{Input: scan(in), Keys: keys}, testutil.OracleSort(chunkRows(in), okeys)
}

// aggSpecFor derives a valid AggSpec over column j of the input.
func aggSpecFor(r picker, in *storage.Chunk, j int) plan.AggSpec {
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

// aggCase groups in by ngroup random columns (0: a global aggregate)
// under 1-4 random aggregates.
func aggCase(r picker, in *storage.Chunk, ngroup int) (plan.Node, [][]types.Value) {
	groupBy := make([]expr.Expr, 0, ngroup)
	ogroup := make([]int, 0, ngroup)
	sch := storage.Schema{}
	for i := 0; i < ngroup; i++ {
		j := r.Intn(len(in.Cols))
		groupBy = append(groupBy, &expr.ColRef{Idx: j, K: in.Schema[j].Kind})
		ogroup = append(ogroup, j)
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
	n := &plan.Aggregate{Input: scan(in), GroupBy: groupBy, Aggs: aggs, Sch: sch}
	return n, testutil.OracleAggregate(chunkRows(in), ogroup, oracleAggs(aggs))
}

// oracleAggs translates aggregate specs over column references.
func oracleAggs(aggs []plan.AggSpec) []testutil.OracleAgg {
	out := make([]testutil.OracleAgg, len(aggs))
	for i, a := range aggs {
		out[i] = testutil.OracleAgg{Op: a.Op.String(), Distinct: a.Distinct}
		if ref, ok := a.Arg.(*expr.ColRef); ok {
			out[i].Col = ref.Idx
		}
	}
	return out
}

var oracleJoinKinds = map[plan.JoinType]string{
	plan.JoinCross: "CROSS", plan.JoinInner: "INNER", plan.JoinLeft: "LEFT",
	plan.JoinSemi: "SEMI", plan.JoinAnti: "ANTI",
}

// joinCase joins on random equality pairs over same-kind columns, plus
// sometimes a residual '<' — or returns a nil node when the two sides
// share no column kind. Cross joins take no condition.
func joinCase(r picker, jt plan.JoinType, left, right *storage.Chunk) (plan.Node, [][]types.Value) {
	nLeft := len(left.Schema)
	var conjuncts []expr.Expr
	var holds []func(l, r []types.Value) bool
	add := func(op expr.CmpOp, lj, rj int) {
		k := left.Schema[lj].Kind
		conjuncts = append(conjuncts, &expr.Cmp{Op: op,
			L: &expr.ColRef{Idx: lj, K: k},
			R: &expr.ColRef{Idx: nLeft + rj, K: k}})
		holds = append(holds, func(l, r []types.Value) bool {
			if l[lj].Null || r[rj].Null {
				return false // three-valued logic: NULL is not true
			}
			c := types.Compare(l[lj], r[rj])
			return (op == expr.CmpEq && c == 0) || (op == expr.CmpLt && c < 0)
		})
	}
	sameKind := func(lj, rj int) bool { return left.Schema[lj].Kind == right.Schema[rj].Kind }
	if jt != plan.JoinCross {
		for lj := range left.Cols {
			for rj := range right.Cols {
				if sameKind(lj, rj) && r.Intn(3) == 0 {
					add(expr.CmpEq, lj, rj)
				}
			}
		}
		if len(conjuncts) == 0 {
			lj, rj := r.Intn(len(left.Cols)), r.Intn(len(right.Cols))
			if !sameKind(lj, rj) {
				return nil, nil
			}
			add(expr.CmpEq, lj, rj)
		}
		if lj, rj := r.Intn(len(left.Cols)), r.Intn(len(right.Cols)); r.Intn(2) == 0 && sameKind(lj, rj) {
			add(expr.CmpLt, lj, rj)
		}
	}
	var on func(l, r []types.Value) bool
	if len(holds) > 0 {
		on = func(l, r []types.Value) bool {
			for _, h := range holds {
				if !h(l, r) {
					return false
				}
			}
			return true
		}
	}
	n := &plan.Join{Type: jt, Left: scan(left), Right: scan(right), On: expr.AndAll(conjuncts)}
	return n, testutil.OracleJoin(oracleJoinKinds[jt], chunkRows(left), chunkRows(right), len(right.Cols), on)
}

var setOps = []string{"UNION", "EXCEPT", "INTERSECT"}

func TestParallelDistinctEquivalence(t *testing.T) {
	openGates(t)
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, want := distinctCase(randChunk(r, "t", 20+r.Intn(300)))
		checkOracle(t, fmt.Sprintf("seed %d", seed), n, want, oracleWorkers...)
	}
}

func TestParallelSortEquivalence(t *testing.T) {
	openGates(t)
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, want := sortCase(r, randChunk(r, "t", 20+r.Intn(500)))
		checkOracle(t, fmt.Sprintf("seed %d", seed), n, want, oracleWorkers...)
	}
}

func TestParallelSetOpEquivalence(t *testing.T) {
	openGates(t)
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		left := randChunk(r, "l", 10+r.Intn(200))
		right := randLike(r, left, "r", 10+r.Intn(200))
		op, all := setOps[r.Intn(len(setOps))], r.Intn(2) == 0
		n, want := setOpCase(op, all, left, right)
		checkOracle(t, fmt.Sprintf("seed %d: %s all=%v", seed, op, all), n, want, oracleWorkers...)
	}
}

func TestParallelAggregateEquivalence(t *testing.T) {
	openGates(t)
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randChunk(r, "t", 20+r.Intn(400))
		n, want := aggCase(r, in, r.Intn(3))
		checkOracle(t, fmt.Sprintf("seed %d", seed), n, want, oracleWorkers...)
	}
}

func TestParallelJoinEquivalence(t *testing.T) {
	openGates(t)
	jtypes := []plan.JoinType{plan.JoinInner, plan.JoinLeft, plan.JoinSemi, plan.JoinAnti}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		left := randChunk(r, "l", 10+r.Intn(250))
		right := randChunk(r, "r", 10+r.Intn(250))
		jt := jtypes[r.Intn(len(jtypes))]
		n, want := joinCase(r, jt, left, right)
		if n == nil {
			continue // rare: no hashable pair; skip this seed
		}
		checkOracle(t, fmt.Sprintf("seed %d: %s", seed, oracleJoinKinds[jt]), n, want, oracleWorkers...)
	}
}

func TestParallelCrossJoinEquivalence(t *testing.T) {
	openGates(t)
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		left := randChunk(r, "l", 5+r.Intn(40))
		right := randChunk(r, "r", 5+r.Intn(40))
		n, want := joinCase(r, plan.JoinCross, left, right)
		checkOracle(t, fmt.Sprintf("seed %d", seed), n, want, oracleWorkers...)
	}
}

// TestBreakerCoresAtDefaultGate runs DISTINCT, GROUP BY, an equi-join
// and UNION over exactly minParallelRows-1 rows (one worker) and
// minParallelRows rows (two workers) at parallelism 2, with the gate
// left at its default.
func TestBreakerCoresAtDefaultGate(t *testing.T) {
	ctx := &Context{Parallelism: 2}
	if lo, hi := ctx.workers(minParallelRows-1), ctx.workers(minParallelRows); lo != 1 || hi != 2 {
		t.Fatalf("workers at the gate = %d, %d; want 1, 2", lo, hi)
	}
	for _, rows := range []int{minParallelRows - 1, minParallelRows} {
		r := rand.New(rand.NewSource(int64(rows)))
		in := randChunk(r, "t", rows)
		n, want := distinctCase(in)
		checkOracle(t, fmt.Sprintf("DISTINCT over %d rows", rows), n, want, 2)
		n, want = aggCase(r, in, 1+r.Intn(2))
		checkOracle(t, fmt.Sprintf("GROUP BY over %d rows", rows), n, want, 2)

		const nr = 16 // keeps the oracle's nested loop small
		left := randChunk(r, "l", rows-nr)
		n, want = joinCase(r, plan.JoinInner, left, randLike(r, left, "r", nr))
		checkOracle(t, fmt.Sprintf("equi-join over %d rows", rows), n, want, 2)

		left = randChunk(r, "l", rows/2)
		n, want = setOpCase("UNION", false, left, randLike(r, left, "r", rows-rows/2))
		checkOracle(t, fmt.Sprintf("UNION over %d rows", rows), n, want, 2)
	}
}

// nanChunk builds a (g BIGINT, x DOUBLE) chunk whose float column is
// laced with NaN, ±Inf and -0 — the values that historically broke
// Compare's totality and with it the determinism of ORDER BY and
// MIN/MAX.
func nanChunk(r *rand.Rand, n int) *storage.Chunk {
	sch := storage.Schema{
		{Table: "t", Name: "g", Kind: types.KindInt},
		{Table: "t", Name: "x", Kind: types.KindFloat},
	}
	g := storage.NewColumn(types.KindInt, n)
	x := storage.NewColumn(types.KindFloat, n)
	for i := 0; i < n; i++ {
		g.AppendInt(int64(r.Intn(4)))
		switch r.Intn(4) {
		case 0:
			x.AppendFloat(specialFloats[r.Intn(len(specialFloats))])
		case 1:
			x.AppendNull()
		default:
			x.AppendFloat(float64(r.Intn(20)))
		}
	}
	return &storage.Chunk{Schema: sch, Cols: []*storage.Column{g, x}}
}

// TestParallelNaNTotalOrder pins the NaN regression: sorting and
// grouped MIN/MAX over a NaN-laced float column must match the oracle
// at every worker count (requires types.Compare to be a total order).
func TestParallelNaNTotalOrder(t *testing.T) {
	openGates(t)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := nanChunk(r, 30+r.Intn(300))
		rows := chunkRows(in)
		checkOracle(t, fmt.Sprintf("seed %d: sort", seed), &plan.Sort{
			Input: scan(in),
			Keys: []plan.SortKey{
				{Expr: &expr.ColRef{Idx: 1, K: types.KindFloat}, NullsFirst: -1},
				{Expr: &expr.ColRef{Idx: 0, K: types.KindInt}},
			},
		}, testutil.OracleSort(rows, []testutil.OracleSortKey{{Col: 1, NullsFirst: -1}, {Col: 0}}), oracleWorkers...)
		aggs := []plan.AggSpec{
			{Op: plan.AggMin, Arg: &expr.ColRef{Idx: 1, K: types.KindFloat}, Kind: types.KindFloat, Name: "mn"},
			{Op: plan.AggMax, Arg: &expr.ColRef{Idx: 1, K: types.KindFloat}, Kind: types.KindFloat, Name: "mx"},
			{Op: plan.AggCount, Arg: &expr.ColRef{Idx: 1, K: types.KindFloat}, Kind: types.KindInt, Name: "c"},
		}
		checkOracle(t, fmt.Sprintf("seed %d: MIN/MAX", seed), &plan.Aggregate{
			Input:   scan(in),
			GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
			Aggs:    aggs,
			Sch: storage.Schema{
				{Name: "g", Kind: types.KindInt},
				{Name: "mn", Kind: types.KindFloat},
				{Name: "mx", Kind: types.KindFloat},
				{Name: "c", Kind: types.KindInt},
			},
		}, testutil.OracleAggregate(rows, []int{0}, oracleAggs(aggs)), oracleWorkers...)
	}
}

// TestParallelMergeSortMatchesStable pins the parallel merge sort
// against sort.SliceStable on adversarial tie-heavy inputs.
func TestParallelMergeSortMatchesStable(t *testing.T) {
	iota := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(2000)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(5) // heavy ties: stability matters
		}
		less := func(a, b int) bool { return vals[a] < vals[b] }
		want := iota(n)
		sort.SliceStable(want, func(a, b int) bool { return less(want[a], want[b]) })
		for _, workers := range []int{1, 2, 3, 7, 16} {
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

// bytePicker draws picks from fuzz input, one byte per pick (two for
// picks over 256 values); an exhausted input picks 0.
type bytePicker struct{ data []byte }

func (p *bytePicker) Intn(n int) int {
	v := 0
	for width := 1; width < n && len(p.data) > 0; width <<= 8 {
		v = v<<8 | int(p.data[0])
		p.data = p.data[1:]
	}
	return v % n
}

// FuzzBreakerCores drives every breaker core from fuzz input: the
// randomized tests' generators draw from the input instead of a seeded
// rand.Rand (NULLs, NaN/±Inf/-0, small key domains). Each case runs at
// 1 and 3 workers against the oracle. The seed corpus is generator
// output for a range of seeds.
func FuzzBreakerCores(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 64+r.Intn(512))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		openGates(t)
		p := &bytePicker{data: data}
		core := p.Intn(6)
		left := randChunk(p, "l", p.Intn(64))
		var n plan.Node
		var want [][]types.Value
		switch core {
		case 0:
			n, want = distinctCase(left)
		case 1:
			n, want = sortCase(p, left)
		case 2:
			n, want = setOpCase(setOps[p.Intn(len(setOps))], p.Intn(2) == 0, left, randLike(p, left, "r", p.Intn(64)))
		case 3:
			n, want = aggCase(p, left, p.Intn(3))
		case 4:
			jt := []plan.JoinType{plan.JoinInner, plan.JoinLeft, plan.JoinSemi, plan.JoinAnti}[p.Intn(4)]
			n, want = joinCase(p, jt, left, randChunk(p, "r", p.Intn(64)))
		default:
			n, want = joinCase(p, plan.JoinCross, left, randChunk(p, "r", p.Intn(16)))
		}
		if n == nil {
			return
		}
		checkOracle(t, fmt.Sprintf("core %d", core), n, want, 1, 3)
	})
}
