package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// zoneSchema is the fuzzed table: a row id, then one column of every
// kind that carries zones, then z, a divisor for operands that fail.
var zoneSchema = storage.Schema{
	{Table: "t", Name: "id", Kind: types.KindInt},
	{Table: "t", Name: "i", Kind: types.KindInt},
	{Table: "t", Name: "d", Kind: types.KindDate},
	{Table: "t", Name: "b", Kind: types.KindBool},
	{Table: "t", Name: "f", Kind: types.KindFloat},
	{Table: "t", Name: "z", Kind: types.KindInt},
}

// zoneGen generates the fuzzed table's rows and predicates: a layout
// and a NULL pattern per column drawn from the fuzz input, values from
// a rand.Rand seeded by it.
type zoneGen struct {
	p      *bytePicker
	r      *rand.Rand
	layout [6]int
	nulls  [6]int
	zeros  bool
	// special is how often (one row in special) a random or sorted
	// column holds sf or si, this table's special values; 0 never.
	special int
	sf      float64
	si      int64
	table   *storage.Table
	params  []types.Value
	canFail bool
}

func newZoneGen(t testing.TB, p *bytePicker) *zoneGen {
	g := &zoneGen{p: p, r: rand.New(rand.NewSource(int64(p.Intn(1 << 16))))}
	for j := range g.layout {
		g.layout[j], g.nulls[j] = p.Intn(4), p.Intn(5)
	}
	g.zeros = p.Intn(3) == 0
	g.special = []int{0, 2000, 60}[p.Intn(3)]
	g.sf, g.si = specialFloats[p.Intn(len(specialFloats))], specialInts[p.Intn(len(specialInts))]
	tbl, err := storage.NewCatalog().CreateTable("t", slices.Clone(zoneSchema))
	if err != nil {
		t.Fatal(err)
	}
	g.table = tbl
	return g
}

var specialInts = []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}

// appendRows appends n rows.
func (g *zoneGen) appendRows(n int) {
	for k := 0; k < n; k++ {
		i := g.table.NumRows()
		g.table.Cols[0].AppendInt(int64(i))
		for j := 1; j < len(zoneSchema); j++ {
			col := g.table.Cols[j]
			if g.null(j, i) {
				col.AppendNull()
				continue
			}
			switch col.Kind {
			case types.KindFloat:
				col.AppendFloat(g.float(i))
			case types.KindBool:
				col.AppendInt(g.int(j, i) & 1)
			default:
				col.AppendInt(g.int(j, i))
			}
		}
	}
}

// null reports whether column j is NULL at row i: never, in runs, in
// whole windows, or scattered.
func (g *zoneGen) null(j, i int) bool {
	switch g.nulls[j] {
	case 1:
		return i/97%4 == 1
	case 2:
		return i/storage.ZoneRows%3 == 1
	case 3:
		return g.r.Intn(8) == 0
	}
	return false
}

// isSpecial reports whether this row holds the table's special value.
func (g *zoneGen) isSpecial() bool { return g.special > 0 && g.r.Intn(g.special) == 0 }

// int is column j's value at row i under its layout: sorted, clustered
// by window, random, or constant; sorted and random ones hold the
// table's special int now and then.
func (g *zoneGen) int(j, i int) int64 {
	if j == 5 {
		if g.zeros && g.r.Intn(500) == 0 {
			return 0
		}
		return 1 + int64(g.r.Intn(5))
	}
	if g.layout[j]%2 == 0 && g.isSpecial() {
		return g.si
	}
	switch g.layout[j] {
	case 0:
		return int64(i)*3 - 4000
	case 1:
		return int64(i/storage.ZoneRows)*1000 + int64(g.r.Intn(1000))
	case 2:
		return int64(g.r.Intn(20000)) - 10000
	}
	return 7
}

func (g *zoneGen) float(i int) float64 {
	if g.layout[4] != 3 && g.isSpecial() {
		return g.sf
	}
	switch g.layout[4] {
	case 0:
		return float64(i)*0.5 - 1000
	case 1:
		return float64(i/storage.ZoneRows)*100 + g.r.Float64()*100
	case 2:
		return g.r.NormFloat64() * 1000
	}
	return -0.0
}

// constant draws a comparison constant near column j's values, or a
// special value, of a kind that may differ from the column's.
func (g *zoneGen) constant(j int) types.Value {
	n := g.table.NumRows()
	var near types.Value
	if n > 0 {
		near = g.table.Cols[j].Get(g.r.Intn(n))
	}
	switch g.p.Intn(6) {
	case 0:
		return types.NewNull(types.KindNull)
	case 1:
		return types.NewFloat(g.sf)
	case 2:
		return types.NewInt(g.si)
	case 3:
		if !near.Null {
			return types.NewFloat(near.AsFloat() + float64(g.r.Intn(3)-1)*0.5)
		}
	case 4:
		if !near.Null && near.K != types.KindFloat {
			return types.Value{K: near.K, I: near.I + int64(g.r.Intn(3)-1)}
		}
	}
	return types.NewInt(int64(g.r.Intn(20000)) - 10000)
}

// operand is v as a literal or as a parameter.
func (g *zoneGen) operand(v types.Value) expr.Expr {
	if g.p.Intn(2) == 0 {
		return &expr.Const{Val: v}
	}
	g.params = append(g.params, v)
	return &expr.Param{Idx: len(g.params) - 1, K: v.K}
}

func ref(j int) expr.Expr {
	return &expr.ColRef{Idx: j, K: zoneSchema[j].Kind, Name: zoneSchema[j].Name}
}

// cmp is column op constant in either order; an int-backed column is
// sometimes widened to DOUBLE as the binder widens it.
func (g *zoneGen) cmp() expr.Expr {
	j := 1 + g.p.Intn(4)
	var col expr.Expr = ref(j)
	if k := zoneSchema[j].Kind; (k == types.KindInt || k == types.KindBool) && g.p.Intn(3) == 0 {
		col = &expr.Cast{X: col, To: types.KindFloat}
	}
	c := &expr.Cmp{Op: expr.CmpOp(g.p.Intn(6)), L: col, R: g.operand(g.constant(j))}
	if g.p.Intn(2) == 0 {
		c.L, c.R = c.R, c.L
	}
	return c
}

// term is one conjunct: mostly a bound, sometimes a predicate that
// gives none (OR, NOT, IS NULL, column against column), sometimes an
// operand that can fail.
func (g *zoneGen) term() expr.Expr {
	switch g.p.Intn(10) {
	case 0:
		return &expr.Logic{L: g.cmp(), R: g.cmp()}
	case 1:
		return &expr.Not{X: g.cmp()}
	case 2:
		return &expr.IsNull{X: ref(1 + g.p.Intn(4)), Not: g.p.Intn(2) == 0}
	case 3:
		return &expr.Cmp{Op: expr.CmpOp(g.p.Intn(6)), L: ref(1 + g.p.Intn(4)), R: ref(1 + g.p.Intn(4))}
	case 4:
		if !g.canFail {
			g.canFail = true
			if g.p.Intn(2) == 0 {
				div := &expr.Arith{Op: expr.OpDiv, L: ref(1), R: ref(5), K: types.KindInt}
				return &expr.Cmp{Op: expr.CmpGe, L: div, R: &expr.Const{Val: types.NewInt(0)}}
			}
			bad := &expr.Cast{X: &expr.Const{Val: types.NewString("x")}, To: types.KindInt}
			return &expr.Cmp{Op: expr.CmpLt, L: ref(1), R: bad}
		}
	}
	return g.cmp()
}

func (g *zoneGen) predicate() expr.Expr {
	pred := g.term()
	for k := g.p.Intn(4); k > 0; k-- {
		pred = &expr.Logic{And: true, L: pred, R: g.term()}
	}
	return pred
}

// checkZonePrune runs Filter(Scan) over the table at several batch
// sizes and holds it to expr.Select over the whole table: the same
// rows, in the same order, or the same error.
func checkZonePrune(t *testing.T, tbl *storage.Table, pred expr.Expr, params []types.Value) {
	t.Helper()
	ectx := &expr.Context{Params: params}
	want, wantErr := expr.Select(ectx, pred, tbl.Chunk(), nil)
	for _, batch := range []int{1, 7, 1024, 4096} {
		n := &plan.Filter{Input: &plan.Scan{Table: tbl, Alias: "t", Sch: tbl.Schema}, Pred: pred}
		out, err := runPlan(n, &Context{Expr: ectx, BatchRows: batch})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("batch %d, %d rows, %s %v: error %v, want %v", batch, tbl.NumRows(), pred, params, err, wantErr)
		}
		if err != nil {
			continue
		}
		got := make([]int, out.NumRows())
		for i, id := range out.Cols[0].Ints {
			got[i] = int(id)
		}
		if !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("batch %d, %d rows, %s %v:\n got %d rows %v\nwant %d rows %v",
				batch, tbl.NumRows(), pred, params, len(got), head(got), len(want), head(want))
		}
	}
}

func head(rows []int) []int { return rows[:min(len(rows), 20)] }

// FuzzZonePrune holds scans that skip windows by their zones to the
// whole-table selection: tables of up to ~5k rows with sorted,
// clustered, random and constant layouts, NULL runs and all-NULL
// windows, NaN, ±Inf, -0.0 and the int extremes; predicates are
// conjunctions of comparisons against literals and parameters of
// mixed kinds (and NULL), with OR, NOT, IS NULL, column-column terms
// and operands that fail mixed in. The table then grows past a seal
// and is checked again, so zones computed earlier are extended.
func FuzzZonePrune(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 32+r.Intn(96))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &bytePicker{data: data}
		g := newZoneGen(t, p)
		g.appendRows(p.Intn(5200))
		pred := g.predicate()
		checkZonePrune(t, g.table, pred, g.params)
		g.appendRows(1 + p.Intn(storage.ZoneRows))
		checkZonePrune(t, g.table, pred, g.params)
	})
}

// scanWindows runs Filter(Scan) traced and returns the rows and the
// scan span's windows attribute.
func scanWindows(t *testing.T, tbl *storage.Table, pred expr.Expr, params ...types.Value) (int, *trace.Windows) {
	t.Helper()
	tr := trace.New()
	n := &plan.Filter{Input: &plan.Scan{Table: tbl, Alias: "t", Sch: tbl.Schema}, Pred: pred}
	out, err := runPlan(n, &Context{Expr: &expr.Context{Params: params}, Trace: tr, TraceSpan: trace.NoSpan})
	if err != nil {
		t.Fatal(err)
	}
	scan := tr.Tree().Children[0].Children[0]
	return out.NumRows(), scan.Windows
}

func TestScanReadsOnlyWindowsInRange(t *testing.T) {
	tbl, err := storage.NewCatalog().CreateTable("p", pairsChunk(0).Schema)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Cols = pairsChunk(64 * storage.ZoneRows).Cols
	var batches []int
	defer SetBatchObserver(SetBatchObserver(func(op string, rows int) {
		if op == "Scan p AS t" {
			batches = append(batches, rows)
		}
	}))
	for _, tc := range []struct {
		lo, hi  int64
		rows    int
		windows *trace.Windows
	}{
		{960, 1088, 128, &trace.Windows{Scanned: 2, Total: 64}},
		{30000, 30128, 128, &trace.Windows{Scanned: 1, Total: 64}},
		{-5, 0, 0, &trace.Windows{Scanned: 0, Total: 64}},
		{0, 1 << 20, 64 * storage.ZoneRows, nil},
	} {
		batches = batches[:0]
		rows, windows := scanWindows(t, tbl, seqWindow(), types.NewInt(tc.lo), types.NewInt(tc.hi))
		if rows != tc.rows || fmt.Sprint(windows) != fmt.Sprint(tc.windows) {
			t.Errorf("seq in [%d, %d): %d rows, windows %v; want %d rows, windows %v", tc.lo, tc.hi, rows, windows, tc.rows, tc.windows)
		}
		if tc.windows != nil && len(batches) != tc.windows.Scanned {
			t.Errorf("seq in [%d, %d): scan emitted %d batches, want one per window read", tc.lo, tc.hi, len(batches))
		}
	}

	// The partial window at the end is always read, and has no zone.
	tbl.Cols = pairsChunk(64*storage.ZoneRows + 5).Cols
	if rows, windows := scanWindows(t, tbl, seqWindow(), types.NewInt(-5), types.NewInt(0)); rows != 0 || *windows != (trace.Windows{Scanned: 1, Total: 65}) {
		t.Errorf("partial window: %d rows, windows %v; want 0 rows, windows 1/65", rows, windows)
	}

	// An operand that can fail keeps every window, so its error shows.
	div := &expr.Arith{Op: expr.OpDiv, L: ref(0), R: &expr.Const{Val: types.NewInt(0)}, K: types.KindInt}
	fails := &expr.Logic{And: true, L: seqWindow(), R: &expr.Cmp{Op: expr.CmpEq, L: div, R: &expr.Const{Val: types.NewInt(1)}}}
	n := &plan.Filter{Input: &plan.Scan{Table: tbl, Alias: "t", Sch: tbl.Schema}, Pred: fails}
	if _, err := runPlan(n, &Context{Expr: &expr.Context{Params: []types.Value{types.NewInt(-5), types.NewInt(0)}}}); err == nil {
		t.Error("a division by zero over a range no window matches went unreported")
	}
}
