package graphsql

// Benchmarks regenerating the paper's evaluation (§4): one testing.B
// benchmark per table/figure plus the ablations of DESIGN.md. They run
// on "mini" datasets (Table 1 sizes divided by benchShrink) so the
// default `go test -bench .` stays laptop-sized; the shapes — not the
// absolute numbers — are the reproduction target. cmd/bench runs the
// same experiments at configurable scale.

import (
	"context"
	"fmt"
	"testing"

	"graphsql/internal/baseline"
	"graphsql/internal/bench"
	"graphsql/internal/core"
	"graphsql/internal/engine"
	"graphsql/internal/graph"
	"graphsql/internal/ldbc"
	"graphsql/internal/types"
)

const (
	benchShrink = 20
	benchSeed   = 42
)

func benchSetup(b *testing.B, sf int) (*engine.Engine, *ldbc.Dataset) {
	b.Helper()
	e, ds, err := bench.Setup(sf, benchShrink, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return e, ds
}

// BenchmarkTable1 regenerates Table 1: dataset generation per scale
// factor, reporting |V| and |E| alongside the paper's targets.
func BenchmarkTable1(b *testing.B) {
	for _, sf := range []int{1, 3, 10} {
		b.Run(fmt.Sprintf("SF%d", sf), func(b *testing.B) {
			var v, e int
			for i := 0; i < b.N; i++ {
				ds, err := ldbc.Generate(ldbc.Config{SF: sf, Shrink: benchShrink, Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				v, e = ds.NumVertices(), ds.NumEdges()
			}
			pv, pe, _ := ldbc.Sizes(sf)
			b.ReportMetric(float64(v), "vertices")
			b.ReportMetric(float64(e), "edges")
			b.ReportMetric(float64(pv)/float64(benchShrink), "target_vertices")
			b.ReportMetric(float64(pe)/float64(benchShrink), "target_edges")
		})
	}
}

// benchPairQuery times one query shape over random pairs, the figure
// 1a protocol.
func benchPairQuery(b *testing.B, sf int, query string) {
	e, ds := benchSetup(b, sf)
	src, dst := ds.RandomPairs(256, benchSeed)
	// Warm-up.
	if _, err := e.QueryCtx(context.Background(), query, types.NewInt(src[0]), types.NewInt(dst[0])); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(src)
		if _, err := e.QueryCtx(context.Background(), query, types.NewInt(src[k]), types.NewInt(dst[k])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1aQ13 regenerates the unweighted series of figure 1a.
func BenchmarkFig1aQ13(b *testing.B) {
	for _, sf := range []int{1, 3, 10} {
		b.Run(fmt.Sprintf("SF%d", sf), func(b *testing.B) { benchPairQuery(b, sf, bench.Q13) })
	}
}

// BenchmarkFig1aQ14 regenerates the weighted series of figure 1a
// (integer affinity weights through the radix queue).
func BenchmarkFig1aQ14(b *testing.B) {
	for _, sf := range []int{1, 3, 10} {
		b.Run(fmt.Sprintf("SF%d", sf), func(b *testing.B) { benchPairQuery(b, sf, bench.Q14Variant) })
	}
}

// BenchmarkFig1aQ14Float is the float-weight variant (binary-heap
// Dijkstra), the fallback when weights cannot use the radix queue.
func BenchmarkFig1aQ14Float(b *testing.B) {
	for _, sf := range []int{1, 3} {
		b.Run(fmt.Sprintf("SF%d", sf), func(b *testing.B) { benchPairQuery(b, sf, bench.Q14FloatVariant) })
	}
}

// BenchmarkFig1b regenerates figure 1b: Q13 batched at varying batch
// sizes; the reported per_pair_ns metric is the figure's y axis.
func BenchmarkFig1b(b *testing.B) {
	for _, sf := range []int{1, 3} {
		e, ds := benchSetup(b, sf)
		for _, batch := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
			b.Run(fmt.Sprintf("SF%d/batch%d", sf, batch), func(b *testing.B) {
				var total float64
				for i := 0; i < b.N; i++ {
					perPair, err := bench.RunBatch(e, ds, batch, benchSeed)
					if err != nil {
						b.Fatal(err)
					}
					total += float64(perPair.Nanoseconds())
				}
				b.ReportMetric(total/float64(b.N), "per_pair_ns")
			})
		}
	}
}

// BenchmarkBaselines regenerates the E4 motivation comparison: the
// native operator versus the three folk methods of §1.
func BenchmarkBaselines(b *testing.B) {
	e, ds := benchSetup(b, 1)
	src, dst := ds.RandomPairs(64, benchSeed)
	run := func(b *testing.B, f func(s, d int64) (int64, error)) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			k := i % len(src)
			if _, err := f(src[k], dst[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("native", func(b *testing.B) {
		run(b, func(s, d int64) (int64, error) {
			return benchNative(e, s, d)
		})
	})
	b.Run("recursiveCTE", func(b *testing.B) {
		run(b, func(s, d int64) (int64, error) {
			return benchRecursive(e, s, d)
		})
	})
	b.Run("psm", func(b *testing.B) {
		run(b, func(s, d int64) (int64, error) {
			return benchPSM(e, s, d)
		})
	})
	b.Run("selfJoin3", func(b *testing.B) {
		run(b, func(s, d int64) (int64, error) {
			return benchSelfJoin(e, s, d)
		})
	})
}

// BenchmarkDijkstraQueues regenerates the E5 ablation at the runtime
// level: radix queue vs binary heap on integer weights.
func BenchmarkDijkstraQueues(b *testing.B) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: benchShrink, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	g, weights, dict := bench.BuildRuntimeGraph(ds)
	srcIDs, dstIDs := ds.RandomPairs(128, benchSeed)
	srcs := make([]graph.VertexID, len(srcIDs))
	dsts := make([]graph.VertexID, len(dstIDs))
	for i := range srcIDs {
		srcs[i] = dict.LookupInt(srcIDs[i])
		dsts[i] = dict.LookupInt(dstIDs[i])
	}
	for _, force := range []bool{false, true} {
		name := "radix"
		if force {
			name = "binaryheap"
		}
		b.Run(name, func(b *testing.B) {
			solver := graph.NewSolver(g)
			for i := 0; i < b.N; i++ {
				spec := graph.Spec{WeightsI: weights, ForceBinaryHeap: force}
				if _, err := solver.Solve(srcs, dsts, []graph.Spec{spec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCSRBuild isolates the E6 graph-construction phase the paper
// identifies as the dominant query cost (§4).
func BenchmarkCSRBuild(b *testing.B) {
	for _, sf := range []int{1, 3} {
		b.Run(fmt.Sprintf("SF%d", sf), func(b *testing.B) {
			e, _ := benchSetup(b, sf)
			friends, _ := e.Catalog().Table("friends")
			chunk := friends.Chunk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildGraphCtx(context.Background(), chunk, 0, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphIndex measures the §6 graph index: the same Q13 with
// and without a prebuilt CSR.
func BenchmarkGraphIndex(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		name := "adhoc"
		if indexed {
			name = "indexed"
		}
		b.Run(name, func(b *testing.B) {
			e, ds := benchSetup(b, 1)
			if indexed {
				if err := e.BuildGraphIndex("friends", "src", "dst"); err != nil {
					b.Fatal(err)
				}
			}
			src, dst := ds.RandomPairs(256, benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(src)
				if _, err := e.QueryCtx(context.Background(), bench.Q13, types.NewInt(src[k]), types.NewInt(dst[k])); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Small wrappers keep the baseline imports in one place.

func benchNative(e *engine.Engine, s, d int64) (int64, error) {
	res, err := e.QueryCtx(context.Background(), bench.Q13, types.NewInt(s), types.NewInt(d))
	if err != nil {
		return -1, err
	}
	if res.NumRows() == 0 {
		return -1, nil
	}
	return res.Cols[0].Ints[0], nil
}

func benchRecursive(e *engine.Engine, s, d int64) (int64, error) {
	return baseline.RecursiveCTE(context.Background(), e, "friends", "src", "dst", s, d, 0)
}

func benchPSM(e *engine.Engine, s, d int64) (int64, error) {
	return baseline.PSM(context.Background(), e, "friends", "src", "dst", s, d, 0)
}

func benchSelfJoin(e *engine.Engine, s, d int64) (int64, error) {
	return baseline.SelfJoinChain(context.Background(), e, "friends", "src", "dst", s, d, 3)
}

// BenchmarkDynamicIndex runs the E7 updatable-index ablation: an
// insert+query workload under the three index policies.
func BenchmarkDynamicIndex(b *testing.B) {
	for _, policy := range []string{"adhoc", "rebuild", "delta"} {
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := func() error {
					_, err2 := bench.RunDynamicPolicy(policy, 1, benchShrink, 8, benchSeed)
					return err2
				}(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
