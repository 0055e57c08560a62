package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

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

func TestDynamicGraphAbsorbsAppends(t *testing.T) {
	tbl := dynTable([][3]int64{{1, 2, 1}, {2, 3, 1}})
	dg, err := NewDynamicGraphP(tbl, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := dg.Reachability(types.NewInt(3), types.NewInt(1))
	if ok {
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
	ok, _ = dg.Reachability(types.NewInt(3), types.NewInt(1))
	if !ok {
		t.Fatal("3 must reach 1 through the delta edge")
	}
	ok, _ = dg.Reachability(types.NewInt(1), types.NewInt(4))
	if !ok {
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
	ok, _ := dg.Reachability(types.NewInt(0), types.NewInt(101))
	if !ok {
		t.Fatal("0 must reach 101 after the rebuild")
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
// with a from-scratch build of the whole table.
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
			// Without appends a dynamic graph is exactly its snapshot.
			fresh, err := NewDynamicGraphP(tbl, 0, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					want, err := fresh.Reachability(types.NewInt(int64(s)), types.NewInt(int64(d)))
					if err != nil {
						t.Fatal(err)
					}
					got, err := dg.Reachability(types.NewInt(int64(s)), types.NewInt(int64(d)))
					if err != nil {
						t.Fatal(err)
					}
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
