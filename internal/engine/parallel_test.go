package engine

import (
	"context"
	"testing"

	"graphsql/internal/ldbc"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// setupParallelPair loads the same LDBC dataset into two engines, one
// forced sequential and one with a 4-worker budget.
func setupParallelPair(t *testing.T) (seq, par *Engine, ds *ldbc.Dataset) {
	t.Helper()
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seq, par = New(), New()
	seq.SetParallelism(1)
	par.SetParallelism(4)
	for _, e := range []*Engine{seq, par} {
		if err := ds.Load(e.Catalog()); err != nil {
			t.Fatal(err)
		}
	}
	return seq, par, ds
}

// loadPairs materializes a pairs table of random source/destination
// pairs in both engines.
func loadPairs(t *testing.T, engines []*Engine, ds *ldbc.Dataset, n int, seed uint64) {
	t.Helper()
	src, dst := ds.RandomPairs(n, seed)
	for _, e := range engines {
		_ = e.Catalog().DropTable("pairs")
		pairs, err := e.Catalog().CreateTable("pairs", storage.Schema{
			{Name: "src", Kind: types.KindInt},
			{Name: "dst", Kind: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			pairs.Cols[0].AppendInt(src[i])
			pairs.Cols[1].AppendInt(dst[i])
		}
	}
}

// chunksEqual compares two result chunks cell by cell.
func chunksEqual(t *testing.T, label string, a, b *storage.Chunk) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for i := 0; i < a.NumRows(); i++ {
		for j := 0; j < a.NumCols(); j++ {
			va, vb := a.Cols[j].Get(i), b.Cols[j].Get(i)
			if va.String() != vb.String() {
				t.Fatalf("%s: cell (%d,%d): %s != %s", label, i, j, va.String(), vb.String())
			}
		}
	}
}

const batchedQ13 = `SELECT p.src, p.dst, CHEAPEST SUM(1) AS cost
	FROM pairs p
	WHERE p.src REACHES p.dst OVER friends EDGE (src, dst)
	ORDER BY p.src, p.dst`

const batchedQ14Path = `SELECT p.src, p.dst, CHEAPEST SUM(f: iweight) AS (cost, path), CHEAPEST SUM(f: weight) AS fcost
	FROM pairs p
	WHERE p.src REACHES p.dst OVER friends f EDGE (src, dst)
	ORDER BY p.src, p.dst`

// TestParallelEngineMatchesSequential runs batched many-to-many
// shortest-path queries (unweighted, weighted-with-path, float) on a
// sequential and a 4-worker engine and requires identical results;
// with -race it doubles as the engine-level concurrency test.
func TestParallelEngineMatchesSequential(t *testing.T) {
	seq, par, ds := setupParallelPair(t)
	engines := []*Engine{seq, par}
	for _, q := range []string{batchedQ13, batchedQ14Path} {
		loadPairs(t, engines, ds, 96, 31)
		a, err := seq.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumRows() == 0 {
			t.Fatal("workload produced no reachable pairs; equivalence test is vacuous")
		}
		chunksEqual(t, q[:40], a, b)
	}
}

// TestParallelDynamicIndexMatchesSequential covers the Delta path: a
// graph index absorbs appended rows, then batched queries over
// snapshot+delta must agree between sequential and parallel engines.
func TestParallelDynamicIndexMatchesSequential(t *testing.T) {
	seq, par, ds := setupParallelPair(t)
	engines := []*Engine{seq, par}
	for _, e := range engines {
		if err := e.BuildGraphIndex("friends", "src", "dst"); err != nil {
			t.Fatal(err)
		}
	}
	// Append fresh edges so the next query runs over snapshot+delta.
	src, dst := ds.RandomPairs(40, 77)
	for _, e := range engines {
		friends, _ := e.Catalog().Table("friends")
		for i := range src {
			friends.Cols[0].AppendInt(src[i])
			friends.Cols[1].AppendInt(dst[i])
			friends.Cols[2].AppendInt(15000)
			friends.Cols[3].AppendFloat(1.0)
			friends.Cols[4].AppendInt(1)
		}
	}
	loadPairs(t, engines, ds, 96, 53)
	a, err := seq.QueryCtx(context.Background(), batchedQ13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.QueryCtx(context.Background(), batchedQ13)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() == 0 {
		t.Fatal("workload produced no reachable pairs; equivalence test is vacuous")
	}
	chunksEqual(t, "dynamic-index batched Q13", a, b)
}
