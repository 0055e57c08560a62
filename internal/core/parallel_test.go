package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// TestBuildGraphPEquivalence builds a graph large enough to cross the
// runtime's parallel thresholds and checks the parallel build is
// bit-identical to a sequential one: same dictionary size, same CSR
// layout.
func TestBuildGraphPEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m = 70000
	c := storage.NewChunk(storage.Schema{
		{Name: "s", Kind: types.KindInt},
		{Name: "d", Kind: types.KindInt},
	})
	sc := storage.NewColumn(types.KindInt, m)
	dc := storage.NewColumn(types.KindInt, m)
	for i := 0; i < m; i++ {
		sc.AppendInt(int64(rng.Intn(9000)))
		dc.AppendInt(int64(rng.Intn(9000)))
	}
	c.Cols = []*storage.Column{sc, dc}

	seq, err := BuildGraphCtx(context.Background(), c, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildGraphCtx(context.Background(), c, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumVertices() != par.NumVertices() {
		t.Fatalf("|V| %d != %d", par.NumVertices(), seq.NumVertices())
	}
	if !reflect.DeepEqual(seq.CSR, par.CSR) {
		t.Fatal("parallel CSR differs from sequential")
	}
	// The dictionaries must agree on every key -> id mapping, not just
	// the size.
	for i := 0; i < m; i++ {
		k := sc.Ints[i]
		if seq.Dict.LookupInt(k) != par.Dict.LookupInt(k) {
			t.Fatalf("key %d: id %d != %d", k, par.Dict.LookupInt(k), seq.Dict.LookupInt(k))
		}
	}
}

// TestBuildGraphDictSizedByVertices pins the vertex dictionary's size:
// 200,000 edges over 100 vertices must not allocate a map sized by
// edge rows. Beyond the id arrays and the CSR (four arrays of m int32s)
// the build may allocate well under one more such array.
func TestBuildGraphDictSizedByVertices(t *testing.T) {
	const m, n = 200000, 100
	c := storage.NewChunk(storage.Schema{
		{Name: "s", Kind: types.KindInt},
		{Name: "d", Kind: types.KindInt},
	})
	sc := storage.NewColumn(types.KindInt, m)
	dc := storage.NewColumn(types.KindInt, m)
	for i := 0; i < m; i++ {
		sc.AppendInt(int64(i % n))
		dc.AppendInt(int64((i * 7) % n))
	}
	c.Cols = []*storage.Column{sc, dc}
	for _, parallelism := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pg, err := BuildGraphCtx(context.Background(), c, 0, 1, parallelism)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if pg.NumVertices() != n {
			t.Fatalf("|V| = %d, want %d", pg.NumVertices(), n)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*4*m+4*m/2); got > limit {
			t.Fatalf("parallelism %d: build allocated %d bytes, want <= %d (dictionary sized by edges?)", parallelism, got, limit)
		}
	}
}
