package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// dynTable builds a table-like chunk whose columns can grow (shared
// *Column objects, as base tables behave).
func dynTable(edges [][3]int64) *storage.Chunk {
	return edgeChunk(edges)
}

func appendEdge(c *storage.Chunk, s, d, w int64) {
	c.Cols[0].AppendInt(s)
	c.Cols[1].AppendInt(d)
	c.Cols[2].AppendInt(w)
}

// Prepared exposes the current snapshot (without the delta).
func (dg *DynamicGraph) Prepared() *PreparedGraph {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	return dg.pg
}

// DeltaEdges reports the number of edges currently in the delta.
func (dg *DynamicGraph) DeltaEdges() int {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	return dg.deltaEdgesLocked()
}

// matcher is the GraphMatch entry point a query runs through, shared by
// graph indices (DynamicGraph) and ad hoc graphs (PreparedGraph).
type matcher interface {
	MatchCtx(context.Context, *plan.GraphMatch, *storage.Chunk, *storage.Column, *storage.Column, *expr.Context) (*storage.Chunk, error)
}

// reaches answers one pair the way `? REACHES ?` does: a one-row
// GraphMatch with no CHEAPEST SUM, which over a graph index is a
// bidirectional search and over an ad hoc graph a forward one.
func reaches(t *testing.T, g matcher, src, dst types.Value) bool {
	t.Helper()
	in := storage.NewChunk(storage.Schema{{Name: "x", Kind: src.K}, {Name: "y", Kind: dst.K}})
	in.AppendRow([]types.Value{src, dst})
	gm := &plan.GraphMatch{SrcIdx: 0, DstIdx: 1, Sch: in.Schema}
	out, err := g.MatchCtx(context.Background(), gm, in, in.Cols[0], in.Cols[1], &expr.Context{})
	if err != nil {
		t.Fatal(err)
	}
	return out.NumRows() == 1
}

func TestDynamicGraphAbsorbsAppends(t *testing.T) {
	tbl := dynTable([][3]int64{{1, 2, 1}, {2, 3, 1}})
	dg, err := NewDynamicGraphP(tbl, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reaches(t, dg, types.NewInt(3), types.NewInt(1)) {
		t.Fatal("3 must not reach 1 before the append")
	}
	// Close the cycle and introduce a brand-new vertex 4.
	appendEdge(tbl, 3, 1, 1)
	appendEdge(tbl, 3, 4, 1)
	if _, err := dg.RefreshCtx(context.Background(), tbl); err != nil {
		t.Fatal(err)
	}
	if dg.DeltaEdges() != 2 {
		t.Fatalf("delta edges = %d, want 2", dg.DeltaEdges())
	}
	if !reaches(t, dg, types.NewInt(3), types.NewInt(1)) {
		t.Fatal("3 must reach 1 through the delta edge")
	}
	if !reaches(t, dg, types.NewInt(1), types.NewInt(4)) {
		t.Fatal("1 must reach the new vertex 4")
	}
}

func TestDynamicGraphRefreshIsIdempotent(t *testing.T) {
	tbl := dynTable([][3]int64{{1, 2, 1}})
	dg, err := NewDynamicGraphP(tbl, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := dg.RefreshCtx(context.Background(), tbl); err != nil {
			t.Fatal(err)
		}
	}
	if dg.DeltaEdges() != 0 {
		t.Fatalf("no-op refreshes created %d delta edges", dg.DeltaEdges())
	}
	appendEdge(tbl, 2, 3, 1)
	if _, err := dg.RefreshCtx(context.Background(), tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := dg.RefreshCtx(context.Background(), tbl); err != nil {
		t.Fatal(err)
	}
	if dg.DeltaEdges() != 1 {
		t.Fatalf("delta edges = %d, want 1 (double refresh must not duplicate)", dg.DeltaEdges())
	}
}

func TestDynamicGraphRebuildOnLargeDelta(t *testing.T) {
	tbl := dynTable([][3]int64{{0, 1, 1}})
	dg, err := NewDynamicGraphP(tbl, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Push well past the 64-edge floor of the rebuild threshold.
	for i := int64(1); i <= 100; i++ {
		appendEdge(tbl, i, i+1, 1)
	}
	rebuilt, err := dg.RefreshCtx(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("a 100-edge delta over a 1-edge snapshot must rebuild")
	}
	if dg.DeltaEdges() != 0 {
		t.Fatal("rebuild must clear the delta")
	}
	if dg.Prepared().NumEdges() != 101 {
		t.Fatalf("snapshot edges = %d, want 101", dg.Prepared().NumEdges())
	}
	if !reaches(t, dg, types.NewInt(0), types.NewInt(101)) {
		t.Fatal("0 must reach 101 after the rebuild")
	}
}

// TestIndexCarriesTranspose: a graph index builds its CSR's transpose,
// and builds it again with every rebuilt snapshot; an ad hoc graph,
// built for one query, carries none.
func TestIndexCarriesTranspose(t *testing.T) {
	tbl := dynTable([][3]int64{{0, 1, 1}})
	dg, err := NewDynamicGraphP(tbl, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in := dg.Prepared().CSR.In; in == nil || in.NumEdges() != 1 {
		t.Fatalf("index transpose = %+v, want one edge", in)
	}
	for i := int64(1); i <= 100; i++ {
		appendEdge(tbl, i, i+1, 1)
	}
	if rebuilt, err := dg.RefreshCtx(context.Background(), tbl); err != nil || !rebuilt {
		t.Fatalf("rebuilt %v, err %v; want a rebuild", rebuilt, err)
	}
	if in := dg.Prepared().CSR.In; in == nil || in.NumEdges() != 101 {
		t.Fatalf("rebuilt index transpose = %+v, want 101 edges", in)
	}
	pg, err := BuildGraphCtx(context.Background(), tbl, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pg.CSR.In != nil {
		t.Fatal("an ad hoc graph built a transpose")
	}
}

// TestIndexSinglePairPoolsScratch: a single-pair query over a graph
// index takes its O(V) search scratch from the graph's pool instead of
// allocating it, so a query allocates a small fraction of the ~41 bytes
// per vertex a fresh scratch (both search halves) costs. The bound,
// singlePairBytesPerVertex, is 12 bytes, and 25 under the race
// detector, which makes sync.Pool drop scratch returned to it at
// random. Keep this test free of t.Parallel: it reads process-wide
// allocation counters.
func TestIndexSinglePairPoolsScratch(t *testing.T) {
	dg, err := NewDynamicGraphP(bigEdgeChunk(70000), 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := dg.Prepared().NumVertices()
	reaches(t, dg, types.NewInt(1), types.NewInt(2))
	const queries = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < queries; i++ {
		reaches(t, dg, types.NewInt(i), types.NewInt(8999-i))
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/queries, uint64(singlePairBytesPerVertex*v); got > limit {
		t.Fatalf("a single-pair query allocated %d bytes over %d vertices, want <= %d", got, v, limit)
	}
}

func TestDynamicGraphRejectsShrunkTable(t *testing.T) {
	tbl := dynTable([][3]int64{{1, 2, 1}, {2, 3, 1}})
	dg, err := NewDynamicGraphP(tbl, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	smaller := dynTable([][3]int64{{1, 2, 1}})
	if _, err := dg.RefreshCtx(context.Background(), smaller); err == nil {
		t.Fatal("a shrunk table must violate the append-only contract")
	}
}

func TestDynamicGraphDoesNotCorruptBaseTable(t *testing.T) {
	tbl := dynTable([][3]int64{{1, 2, 1}})
	dg, err := NewDynamicGraphP(tbl, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendEdge(tbl, 2, 3, 1)
	if _, err := dg.RefreshCtx(context.Background(), tbl); err != nil {
		t.Fatal(err)
	}
	// The index's private edge chunk grows; the base table must not.
	if tbl.NumRows() != 2 {
		t.Fatalf("base table rows = %d, want 2 (index append leaked!)", tbl.NumRows())
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDynamicEqualsRebuilt inserts random edge batches and
// checks, after every refresh, that delta-based reachability agrees
// with a from-scratch build of the whole table. The index answers by
// searching from both ends over its transpose and the delta; the
// rebuilt graph is an ad hoc one, searched forward only.
func TestPropertyDynamicEqualsRebuilt(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		tbl := dynTable(nil)
		// Initial edges.
		for i := 0; i < 1+r.Intn(8); i++ {
			appendEdge(tbl, int64(r.Intn(n)), int64(r.Intn(n)), 1)
		}
		dg, err := NewDynamicGraphP(tbl, 0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			for i := 0; i < r.Intn(6); i++ {
				appendEdge(tbl, int64(r.Intn(n)), int64(r.Intn(n)), 1)
			}
			if _, err := dg.RefreshCtx(context.Background(), tbl); err != nil {
				t.Fatal(err)
			}
			fresh, err := BuildGraphCtx(context.Background(), tbl, 0, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					sv, dv := types.NewInt(int64(s)), types.NewInt(int64(d))
					want := reaches(t, fresh, sv, dv)
					got := reaches(t, dg, sv, dv)
					if got != want {
						t.Logf("seed %d round %d: reach(%d,%d) dynamic=%v fresh=%v",
							seed, round, s, d, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
