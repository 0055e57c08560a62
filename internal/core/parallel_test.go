package core

import (
	"context"
	"math/rand"
	"reflect"
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
