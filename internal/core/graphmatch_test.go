package core

import (
	"context"
	"strings"
	"testing"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// edgeChunk builds an edge chunk (s BIGINT, d BIGINT, w BIGINT).
func edgeChunk(edges [][3]int64) *storage.Chunk {
	c := storage.NewChunk(storage.Schema{
		{Name: "s", Kind: types.KindInt},
		{Name: "d", Kind: types.KindInt},
		{Name: "w", Kind: types.KindInt},
	})
	for _, e := range edges {
		c.AppendRow([]types.Value{types.NewInt(e[0]), types.NewInt(e[1]), types.NewInt(e[2])})
	}
	return c
}

func TestBuildGraphIntKeys(t *testing.T) {
	pg, err := BuildGraphCtx(context.Background(), edgeChunk([][3]int64{{10, 20, 1}, {20, 30, 1}}), 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumVertices() != 3 || pg.NumEdges() != 2 {
		t.Fatalf("|V|=%d |E|=%d", pg.NumVertices(), pg.NumEdges())
	}
	if pg.KeyKind != types.KindInt {
		t.Fatalf("key kind = %v", pg.KeyKind)
	}
}

func TestBuildGraphErrors(t *testing.T) {
	mixed := storage.NewChunk(storage.Schema{
		{Name: "s", Kind: types.KindInt},
		{Name: "d", Kind: types.KindString},
	})
	if _, err := BuildGraphCtx(context.Background(), mixed, 0, 1, 0); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("expected kind mismatch, got %v", err)
	}
	if _, err := BuildGraphCtx(context.Background(), edgeChunk(nil), 0, 9, 0); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestBuildGraphCompactsNullEndpoints(t *testing.T) {
	c := storage.NewChunk(storage.Schema{
		{Name: "s", Kind: types.KindInt},
		{Name: "d", Kind: types.KindInt},
	})
	c.AppendRow([]types.Value{types.NewInt(1), types.NewInt(2)})
	c.AppendRow([]types.Value{types.NewNull(types.KindInt), types.NewInt(3)})
	c.AppendRow([]types.Value{types.NewInt(2), types.NewNull(types.KindInt)})
	pg, err := BuildGraphCtx(context.Background(), c, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumEdges() != 1 || pg.NumVertices() != 2 {
		t.Fatalf("|V|=%d |E|=%d after compaction", pg.NumVertices(), pg.NumEdges())
	}
}

func TestReachabilityHelper(t *testing.T) {
	dg, err := NewDynamicGraphP(edgeChunk([][3]int64{{1, 2, 1}, {2, 3, 1}}), 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		s, d int64
		want bool
	}{
		{1, 3, true}, {3, 1, false}, {1, 1, true}, {99, 1, false}, {1, 99, false},
	}
	for _, c := range cases {
		if got := reaches(t, dg, types.NewInt(c.s), types.NewInt(c.d)); got != c.want {
			t.Errorf("reach(%d,%d) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

// matchHelper runs a GraphMatch over an input chunk of (x, y) pairs.
func matchHelper(t *testing.T, edges *storage.Chunk, pairs [][2]int64, specs []plan.CheapestSpec) *storage.Chunk {
	t.Helper()
	pg, err := BuildGraphCtx(context.Background(), edges, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := storage.NewChunk(storage.Schema{
		{Name: "x", Kind: types.KindInt},
		{Name: "y", Kind: types.KindInt},
	})
	for _, p := range pairs {
		in.AppendRow([]types.Value{types.NewInt(p[0]), types.NewInt(p[1])})
	}
	sch := append(storage.Schema{}, in.Schema...)
	for _, sp := range specs {
		sch = append(sch, storage.ColMeta{Name: sp.CostName, Kind: sp.CostKind})
		if sp.WantPath {
			sch = append(sch, storage.ColMeta{Name: sp.PathName, Kind: types.KindPath})
		}
	}
	gm := &plan.GraphMatch{
		X:      &expr.ColRef{Idx: 0, K: types.KindInt},
		Y:      &expr.ColRef{Idx: 1, K: types.KindInt},
		SrcIdx: 0, DstIdx: 1,
		Specs: specs,
		Sch:   sch,
	}
	out, err := pg.MatchCtx(context.Background(), gm, in, in.Cols[0], in.Cols[1], &expr.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMatchFiltersAndCosts(t *testing.T) {
	edges := edgeChunk([][3]int64{{1, 2, 5}, {2, 3, 7}, {1, 3, 20}})
	out := matchHelper(t, edges, [][2]int64{{1, 3}, {3, 1}, {2, 2}},
		[]plan.CheapestSpec{{
			Weight:   &expr.ColRef{Idx: 2, K: types.KindInt},
			CostKind: types.KindInt, CostName: "cost",
		}})
	// (1,3) reachable cost 12 via 2; (3,1) unreachable; (2,2) cost 0.
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", out.NumRows(), out)
	}
	if out.Cols[2].Get(0).I != 12 || out.Cols[2].Get(1).I != 0 {
		t.Fatalf("costs = %v, %v", out.Cols[2].Get(0), out.Cols[2].Get(1))
	}
}

func TestMatchPathContents(t *testing.T) {
	edges := edgeChunk([][3]int64{{1, 2, 5}, {2, 3, 7}, {1, 3, 20}})
	out := matchHelper(t, edges, [][2]int64{{1, 3}},
		[]plan.CheapestSpec{{
			Weight:   &expr.ColRef{Idx: 2, K: types.KindInt},
			CostKind: types.KindInt, CostName: "cost",
			WantPath: true, PathName: "path",
		}})
	p := out.Cols[3].Get(0).P
	if p.Len() != 2 {
		t.Fatalf("path len = %d, want 2: %v", p.Len(), p)
	}
	// Nested table columns mirror the edge table (§2).
	if len(p.Cols) != 3 || p.Cols[0] != "s" || p.Cols[2] != "w" {
		t.Fatalf("path cols = %v", p.Cols)
	}
	if p.Rows[0][0].I != 1 || p.Rows[0][1].I != 2 || p.Rows[1][1].I != 3 {
		t.Fatalf("path rows = %v", p.Rows)
	}
	// Weights of the path rows sum to the cost.
	if p.Rows[0][2].I+p.Rows[1][2].I != out.Cols[2].Get(0).I {
		t.Fatal("path weights do not sum to the cost")
	}
}

func TestMatchFloatWeights(t *testing.T) {
	c := storage.NewChunk(storage.Schema{
		{Name: "s", Kind: types.KindInt},
		{Name: "d", Kind: types.KindInt},
		{Name: "w", Kind: types.KindFloat},
	})
	c.AppendRow([]types.Value{types.NewInt(1), types.NewInt(2), types.NewFloat(0.5)})
	c.AppendRow([]types.Value{types.NewInt(2), types.NewInt(3), types.NewFloat(0.25)})
	out := matchHelper(t, c, [][2]int64{{1, 3}},
		[]plan.CheapestSpec{{
			Weight:   &expr.ColRef{Idx: 2, K: types.KindFloat},
			CostKind: types.KindFloat, CostName: "cost",
		}})
	if got := out.Cols[2].Get(0).F; got != 0.75 {
		t.Fatalf("float cost = %v, want 0.75", got)
	}
}

func TestMatchRejectsNonPositiveWeights(t *testing.T) {
	edges := edgeChunk([][3]int64{{1, 2, 0}})
	pg, err := BuildGraphCtx(context.Background(), edges, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := storage.NewChunk(storage.Schema{
		{Name: "x", Kind: types.KindInt}, {Name: "y", Kind: types.KindInt},
	})
	in.AppendRow([]types.Value{types.NewInt(1), types.NewInt(2)})
	gm := &plan.GraphMatch{
		X: &expr.ColRef{Idx: 0, K: types.KindInt}, Y: &expr.ColRef{Idx: 1, K: types.KindInt},
		SrcIdx: 0, DstIdx: 1,
		Specs: []plan.CheapestSpec{{
			Weight:   &expr.ColRef{Idx: 2, K: types.KindInt},
			CostKind: types.KindInt, CostName: "cost",
		}},
		Sch: append(append(storage.Schema{}, in.Schema...), storage.ColMeta{Name: "cost", Kind: types.KindInt}),
	}
	if _, err := pg.MatchCtx(context.Background(), gm, in, in.Cols[0], in.Cols[1], &expr.Context{}); err == nil ||
		!strings.Contains(err.Error(), "positive") {
		t.Fatalf("expected positivity error, got %v", err)
	}
}

func TestMatchNullKeysFilteredOut(t *testing.T) {
	edges := edgeChunk([][3]int64{{1, 2, 1}})
	pg, err := BuildGraphCtx(context.Background(), edges, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := storage.NewChunk(storage.Schema{
		{Name: "x", Kind: types.KindInt}, {Name: "y", Kind: types.KindInt},
	})
	in.AppendRow([]types.Value{types.NewNull(types.KindInt), types.NewInt(2)})
	in.AppendRow([]types.Value{types.NewInt(1), types.NewNull(types.KindInt)})
	in.AppendRow([]types.Value{types.NewInt(1), types.NewInt(2)})
	gm := &plan.GraphMatch{
		X: &expr.ColRef{Idx: 0, K: types.KindInt}, Y: &expr.ColRef{Idx: 1, K: types.KindInt},
		SrcIdx: 0, DstIdx: 1, Sch: in.Schema,
	}
	out, err := pg.MatchCtx(context.Background(), gm, in, in.Cols[0], in.Cols[1], &expr.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1 (NULL keys fail the predicate)", out.NumRows())
	}
}

func TestStringKeyedGraph(t *testing.T) {
	c := storage.NewChunk(storage.Schema{
		{Name: "s", Kind: types.KindString},
		{Name: "d", Kind: types.KindString},
	})
	c.AppendRow([]types.Value{types.NewString("a"), types.NewString("b")})
	c.AppendRow([]types.Value{types.NewString("b"), types.NewString("c")})
	dg, err := NewDynamicGraphP(c, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reaches(t, dg, types.NewString("a"), types.NewString("c")) {
		t.Fatal("a must reach c")
	}
	if reaches(t, dg, types.NewString("c"), types.NewString("a")) {
		t.Fatal("c must not reach a")
	}
}
