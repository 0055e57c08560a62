package graph

import (
	"context"
	"testing"

	"graphsql/internal/ldbc"
)

// BenchmarkBatchSolve times one batched unit-weight solve over the
// LDBC SF1 person graph (9,892 persons, 362k directed edges) carrying
// its transpose, as a graph index does, on one worker:
//
//	go test -run - -bench BatchSolve -benchmem ./internal/graph
//
// It runs three shapes:
//   - random128: 128 uniform random pairs, the shape of the benchmark's
//     batch128_indexed workload (a statement repeats about 0.8 sources);
//   - source128: 128 pairs from the first person, the graph's largest
//     hub (1,827 friends), one group of 128 destinations;
//   - sourceAll: the first person to every person, the group that is
//     cheaper as one forward traversal than as a search per destination.
func BenchmarkBatchSolve(b *testing.B) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: 1, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	dict := NewIntDict(ds.NumVertices())
	srcIDs, dstIDs := make([]VertexID, ds.NumEdges()), make([]VertexID, ds.NumEdges())
	ctx := context.Background()
	if err := dict.EncodeColumnsIntCtx(ctx, [][]int64{ds.Src, ds.Dst}, [][]VertexID{srcIDs, dstIDs}, 1); err != nil {
		b.Fatal(err)
	}
	g, err := BuildCSRParallelCtx(ctx, dict.Len(), srcIDs, dstIDs, 1)
	if err != nil {
		b.Fatal(err)
	}
	if g.In, err = BuildTransposeCtx(ctx, dict.Len(), srcIDs, dstIDs, 1); err != nil {
		b.Fatal(err)
	}
	encode := func(keys []int64) []VertexID {
		ids := make([]VertexID, len(keys))
		for i, k := range keys {
			ids[i] = dict.LookupInt(k)
		}
		return ids
	}
	same := func(k int64, n int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = k
		}
		return keys
	}
	randSrc, randDst := ds.RandomPairs(128, 42)
	_, oneDst := ds.RandomPairs(128, 7)
	src := ds.PersonIDs[0]
	unit := []Spec{{Unit: true, UnitI: 1}}
	for _, shape := range []struct {
		name       string
		srcs, dsts []int64
	}{
		{"random128", randSrc, randDst},
		{"source128", same(src, 128), oneDst},
		{"sourceAll", same(src, ds.NumVertices()), ds.PersonIDs},
	} {
		srcs, dsts := encode(shape.srcs), encode(shape.dsts)
		b.Run(shape.name, func(b *testing.B) {
			s := NewSolver(g)
			s.Parallelism = 1
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Solve(srcs, dsts, unit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncode times the bulk dictionary encode of the LDBC SF1
// edge keys (362k edges, 724k keys over 9,892 persons), as an ad hoc
// graph build encodes them:
//
//	go test -run - -bench Encode -benchmem ./internal/graph
//
// ints encodes the BIGINT person ids, whose span is ~0.18× the key
// count, so it takes the dense form; strings encodes the same keys as
// strings, which take the hash form.
func BenchmarkEncode(b *testing.B) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: 1, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	outs := [][]VertexID{make([]VertexID, ds.NumEdges()), make([]VertexID, ds.NumEdges())}
	b.Run("ints", func(b *testing.B) {
		cols := [][]int64{ds.Src, ds.Dst}
		b.ReportAllocs()
		for b.Loop() {
			if err := NewIntDict(0).EncodeColumnsIntCtx(ctx, cols, outs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strings", func(b *testing.B) {
		cols := [][]string{stringKeys(ds.Src), stringKeys(ds.Dst)}
		b.ReportAllocs()
		for b.Loop() {
			if err := NewStringDict(0).EncodeColumnsStringCtx(ctx, cols, outs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
