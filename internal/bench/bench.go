// Package bench regenerates every table and figure of the paper's
// evaluation (§4) plus the ablations listed in DESIGN.md. Each
// experiment prints the same rows/series the paper reports; absolute
// numbers depend on the host, but the shapes (weighted vs. unweighted
// gap, per-pair amortization with batch size, native vs. folk-method
// factors) reproduce the paper's findings.
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"graphsql/internal/baseline"
	"graphsql/internal/core"
	"graphsql/internal/engine"
	"graphsql/internal/graph"
	"graphsql/internal/ldbc"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Options configures the experiment drivers.
type Options struct {
	// SFs selects the scale factors to sweep.
	SFs []int
	// Shrink divides dataset sizes (see ldbc.Config.Shrink); 1 is the
	// paper's full size.
	Shrink int
	// Pairs is the number of random source/destination pairs per
	// configuration (the paper used 1000 for SF 1-30, 100 above).
	Pairs int
	// BatchSizes are the figure-1b batch sizes.
	BatchSizes []int
	// Seed fixes the workload.
	Seed uint64
	// Parallelism sets the engine worker budget (0 = one worker per
	// CPU).
	Parallelism int
	// Out receives the report.
	Out io.Writer
}

// Defaults fills unset fields with laptop-friendly values.
func (o *Options) Defaults() {
	if len(o.SFs) == 0 {
		o.SFs = []int{1, 3, 10}
	}
	if o.Shrink == 0 {
		o.Shrink = 10
	}
	if o.Pairs == 0 {
		o.Pairs = 20
	}
	if len(o.BatchSizes) == 0 {
		o.BatchSizes = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Q13 is the unweighted shortest-path query of the paper (appendix
// A.1, LDBC SNB Q13 shape).
const Q13 = `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)`

// Q14Variant is the paper's weighted Q14 variant: a weighted shortest
// path over the precomputed affinity weights. The integer weight
// column routes it through Dijkstra with the radix queue, as in §3.2.
const Q14Variant = `SELECT CHEAPEST SUM(f: iweight) WHERE ? REACHES ? OVER friends f EDGE (src, dst)`

// Q14FloatVariant uses the float affinity, routing through the
// binary-heap Dijkstra.
const Q14FloatVariant = `SELECT CHEAPEST SUM(f: weight) WHERE ? REACHES ? OVER friends f EDGE (src, dst)`

// Setup generates a dataset and loads it into a fresh engine.
func Setup(sf, shrink int, seed uint64) (*engine.Engine, *ldbc.Dataset, error) {
	ds, err := ldbc.Generate(ldbc.Config{SF: sf, Shrink: shrink, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	e := engine.New()
	if err := ds.Load(e.Catalog()); err != nil {
		return nil, nil, err
	}
	return e, ds, nil
}

// Table1 reproduces Table 1: graph sizes per scale factor, printing
// the generated sizes next to the paper's numbers.
func Table1(o Options) error {
	o.Defaults()
	fmt.Fprintf(o.Out, "Table 1: size of the graph at different scale factors (shrink=%d)\n", o.Shrink)
	fmt.Fprintf(o.Out, "%-6s %14s %14s %14s %14s\n", "SF", "vertices", "edges", "paper |V|", "paper |E|")
	for _, sf := range o.SFs {
		ds, err := ldbc.Generate(ldbc.Config{SF: sf, Shrink: o.Shrink, Seed: o.Seed})
		if err != nil {
			return err
		}
		pv, pe, _ := ldbc.Sizes(sf)
		fmt.Fprintf(o.Out, "%-6d %14d %14d %14d %14d\n", sf, ds.NumVertices(), ds.NumEdges(), pv, pe)
	}
	return nil
}

// timeQuery runs a query n times with per-run parameter pairs and
// returns the mean latency.
func timeQuery(e *engine.Engine, q string, src, dst []int64) (time.Duration, error) {
	start := time.Now()
	for i := range src {
		if _, err := e.QueryCtx(context.Background(), q, types.NewInt(src[i]), types.NewInt(dst[i])); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(src)), nil
}

// Fig1a reproduces figure 1a: average latency per query for Q13
// (unweighted) and the Q14 variant (weighted) over a scale-factor
// sweep. The Q14f column is the same weighted query over the float
// affinity (binary-heap Dijkstra, the fallback when weights cannot use
// the radix queue); ratio is Q14var over Q13.
func Fig1a(o Options) error {
	o.Defaults()
	fmt.Fprintf(o.Out, "Figure 1a: average latency per query (shrink=%d, %d pairs per SF)\n", o.Shrink, o.Pairs)
	fmt.Fprintf(o.Out, "%-6s %14s %16s %14s %10s\n", "SF", "Q13 (s)", "Q14var (s)", "Q14f (s)", "ratio")
	for _, sf := range o.SFs {
		e, ds, err := Setup(sf, o.Shrink, o.Seed)
		if err != nil {
			return err
		}
		e.SetParallelism(o.Parallelism)
		src, dst := ds.RandomPairs(o.Pairs, o.Seed+uint64(sf))
		// Warm up once so first-use allocation noise drops out.
		if _, err := e.QueryCtx(context.Background(), Q13, types.NewInt(src[0]), types.NewInt(dst[0])); err != nil {
			return err
		}
		t13, err := timeQuery(e, Q13, src, dst)
		if err != nil {
			return err
		}
		t14, err := timeQuery(e, Q14Variant, src, dst)
		if err != nil {
			return err
		}
		t14f, err := timeQuery(e, Q14FloatVariant, src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-6d %14.6f %16.6f %14.6f %10.3f\n",
			sf, t13.Seconds(), t14.Seconds(), t14f.Seconds(), t14.Seconds()/t13.Seconds())
	}
	return nil
}

// Fig1b reproduces figure 1b: Q13 executed with multiple ⟨source,
// destination⟩ pairs grouped in a single query at varying batch
// sizes; the reported time is latency divided by batch size.
func Fig1b(o Options) error {
	o.Defaults()
	fmt.Fprintf(o.Out, "Figure 1b: latency per pair at varying batch sizes (shrink=%d)\n", o.Shrink)
	fmt.Fprintf(o.Out, "%-6s", "SF")
	for _, b := range o.BatchSizes {
		fmt.Fprintf(o.Out, " %12s", fmt.Sprintf("b=%d (s)", b))
	}
	fmt.Fprintln(o.Out)
	for _, sf := range o.SFs {
		e, ds, err := Setup(sf, o.Shrink, o.Seed)
		if err != nil {
			return err
		}
		e.SetParallelism(o.Parallelism)
		fmt.Fprintf(o.Out, "%-6d", sf)
		for _, b := range o.BatchSizes {
			perPair, err := RunBatch(e, ds, b, o.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(o.Out, " %12.6f", perPair.Seconds())
		}
		fmt.Fprintln(o.Out)
	}
	return nil
}

// RunBatch loads b random pairs into a pairs table and executes one
// many-to-many Q13 over it, returning latency per pair. This is the
// batching experiment: one graph construction amortized over the
// whole batch.
func RunBatch(e *engine.Engine, ds *ldbc.Dataset, b int, seed uint64) (time.Duration, error) {
	_ = e.Catalog().DropTable("pairs")
	pairs, err := e.Catalog().CreateTable("pairs", storage.Schema{
		{Name: "src", Kind: types.KindInt},
		{Name: "dst", Kind: types.KindInt},
	})
	if err != nil {
		return 0, err
	}
	src, dst := ds.RandomPairs(b, seed+uint64(b))
	for i := range src {
		pairs.Cols[0].AppendInt(src[i])
		pairs.Cols[1].AppendInt(dst[i])
	}
	const q = `SELECT p.src, p.dst, CHEAPEST SUM(1) AS cost
		FROM pairs p
		WHERE p.src REACHES p.dst OVER friends EDGE (src, dst)`
	start := time.Now()
	if _, err := e.QueryCtx(context.Background(), q); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(b), nil
}

// Baselines runs the E4 motivation experiment: the native operator
// against the three folk methods of §1 on unweighted distances.
func Baselines(o Options) error {
	o.Defaults()
	sf := o.SFs[0]
	e, ds, err := Setup(sf, o.Shrink, o.Seed)
	if err != nil {
		return err
	}
	e.SetParallelism(o.Parallelism)
	n := o.Pairs
	if n > 10 {
		n = 10 // the folk methods are slow by design
	}
	src, dst := ds.RandomPairs(n, o.Seed)
	fmt.Fprintf(o.Out, "E4 baselines: unweighted distance, SF %d shrink=%d, %d pairs\n", sf, o.Shrink, n)
	type method struct {
		name string
		run  func(s, d int64) (int64, error)
	}
	methods := []method{
		{"native REACHES", func(s, d int64) (int64, error) {
			return baseline.Native(context.Background(), e, "friends", "src", "dst", s, d)
		}},
		{"recursive CTE", func(s, d int64) (int64, error) {
			return baseline.RecursiveCTE(context.Background(), e, "friends", "src", "dst", s, d, 0)
		}},
		{"PSM (row-at-a-time)", func(s, d int64) (int64, error) {
			return baseline.PSM(context.Background(), e, "friends", "src", "dst", s, d, 0)
		}},
		{"self-join chain (<=3 hops)", func(s, d int64) (int64, error) {
			return baseline.SelfJoinChain(context.Background(), e, "friends", "src", "dst", s, d, 3)
		}},
	}
	fmt.Fprintf(o.Out, "%-28s %14s\n", "method", "avg time (s)")
	for _, m := range methods {
		start := time.Now()
		for i := range src {
			if _, err := m.run(src[i], dst[i]); err != nil {
				return fmt.Errorf("%s: %w", m.name, err)
			}
		}
		avg := time.Since(start) / time.Duration(len(src))
		fmt.Fprintf(o.Out, "%-28s %14.6f\n", m.name, avg.Seconds())
	}
	return nil
}

// Phases runs the E6 breakdown: how much of a single-pair query is
// graph construction versus shortest-path computation, the paper's §4
// observation that "the execution time is almost entirely dominated by
// the construction of the graph representation", and the §6 graph
// index that removes it.
func Phases(o Options) error {
	o.Defaults()
	fmt.Fprintf(o.Out, "E6 phase breakdown (shrink=%d)\n", o.Shrink)
	fmt.Fprintf(o.Out, "%-6s %14s %14s %16s %16s\n",
		"SF", "build (s)", "solve (s)", "query adhoc (s)", "query indexed (s)")
	for _, sf := range o.SFs {
		e, ds, err := Setup(sf, o.Shrink, o.Seed)
		if err != nil {
			return err
		}
		e.SetParallelism(o.Parallelism)
		friends, _ := e.Catalog().Table("friends")
		// Phase 1: CSR construction from the edge chunk.
		start := time.Now()
		pg, err := core.BuildGraphCtx(context.Background(), friends.Chunk(), 0, 1, o.Parallelism)
		if err != nil {
			return err
		}
		build := time.Since(start)
		// Phase 2: one BFS on the prepared graph.
		src, dst := ds.RandomPairs(o.Pairs, o.Seed)
		start = time.Now()
		for i := range src {
			s, d := pg.Dict.LookupInt(src[i]), pg.Dict.LookupInt(dst[i])
			if _, err := graph.NewSolver(pg.CSR).Solve([]graph.VertexID{s}, []graph.VertexID{d}, nil); err != nil {
				return err
			}
		}
		solve := time.Since(start) / time.Duration(len(src))
		// End-to-end queries without and with the graph index.
		tAdhoc, err := timeQuery(e, Q13, src, dst)
		if err != nil {
			return err
		}
		if err := e.BuildGraphIndex("friends", "src", "dst"); err != nil {
			return err
		}
		tIndexed, err := timeQuery(e, Q13, src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-6d %14.6f %14.6f %16.6f %16.6f\n",
			sf, build.Seconds(), solve.Seconds(), tAdhoc.Seconds(), tIndexed.Seconds())
	}
	return nil
}

// DijkstraQueues runs the E5 ablation: Dijkstra with the radix queue
// against Dijkstra with a conventional binary heap, on integer
// weights.
func DijkstraQueues(o Options) error {
	o.Defaults()
	fmt.Fprintf(o.Out, "E5 queue ablation: Dijkstra radix queue vs binary heap (shrink=%d, %d pairs)\n", o.Shrink, o.Pairs)
	fmt.Fprintf(o.Out, "%-6s %14s %14s %10s\n", "SF", "radix (s)", "binheap (s)", "ratio")
	for _, sf := range o.SFs {
		_, ds, err := Setup(sf, o.Shrink, o.Seed)
		if err != nil {
			return err
		}
		radix, binheap, err := RunQueueAblation(ds, o.Pairs, o.Seed, o.Parallelism)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-6d %14.6f %14.6f %10.3f\n",
			sf, radix.Seconds(), binheap.Seconds(), binheap.Seconds()/radix.Seconds())
	}
	return nil
}

// RunQueueAblation times batched integer-weight Dijkstra with both
// priority queues over the same pairs, at the runtime level (no SQL).
// parallelism caps the solver workers (0 = one per CPU).
func RunQueueAblation(ds *ldbc.Dataset, pairs int, seed uint64, parallelism int) (radix, binheap time.Duration, err error) {
	g, weights, dict := BuildRuntimeGraph(ds)
	srcIDs, dstIDs := ds.RandomPairs(pairs, seed)
	srcs := make([]graph.VertexID, pairs)
	dsts := make([]graph.VertexID, pairs)
	for i := 0; i < pairs; i++ {
		srcs[i] = dict.LookupInt(srcIDs[i])
		dsts[i] = dict.LookupInt(dstIDs[i])
	}
	run := func(force bool) (time.Duration, error) {
		solver := graph.NewSolver(g)
		solver.Parallelism = parallelism
		spec := graph.Spec{WeightsI: weights, ForceBinaryHeap: force}
		start := time.Now()
		if _, err := solver.Solve(srcs, dsts, []graph.Spec{spec}); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	if radix, err = run(false); err != nil {
		return 0, 0, err
	}
	if binheap, err = run(true); err != nil {
		return 0, 0, err
	}
	return radix, binheap, nil
}

// BuildRuntimeGraph compiles a dataset straight into the runtime CSR,
// bypassing SQL; used by runtime-level ablations.
func BuildRuntimeGraph(ds *ldbc.Dataset) (*graph.CSR, []int64, *graph.Dict) {
	dict := graph.NewIntDict(ds.NumVertices())
	m := ds.NumEdges()
	src := make([]graph.VertexID, m)
	dst := make([]graph.VertexID, m)
	for i := 0; i < m; i++ {
		src[i] = dict.EncodeInt(ds.Src[i])
	}
	for i := 0; i < m; i++ {
		dst[i] = dict.EncodeInt(ds.Dst[i])
	}
	g, err := graph.BuildCSRParallelCtx(context.Background(), dict.Len(), src, dst, 1)
	if err != nil {
		panic(err) // ids are dense by construction
	}
	return g, ds.IWeight, dict
}
