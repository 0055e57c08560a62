package main

// The in-process layer harness: the *call* metrics. It loads the same
// dataset into an engine of its own and times calls into each layer's
// public functions on the workload's own statement and inputs, with
// runtime.MemStats deltas for the allocation counts. Every timed block
// is bracketed by a span of the benchmark's recorder.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"graphsql"
	"graphsql/internal/core"
	"graphsql/internal/engine"
	"graphsql/internal/graph"
	"graphsql/internal/server"
	"graphsql/internal/sql/fingerprint"
	"graphsql/internal/sql/lexer"
	"graphsql/internal/sql/parser"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
	"graphsql/internal/wire"
)

// callBudget is the time one call metric may spend measuring.
const callBudget = 150 * time.Millisecond

// harnessInputs is how many of the workload's requests the harness
// cycles through.
const harnessInputs = 64

// callStats is the mean cost of one call.
type callStats struct {
	ns, allocs, bytes float64
	calls             int
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// measureCalls runs fn for about budget and returns its mean cost. The
// batch size is calibrated first so that reading the clock stays out of
// nanosecond-scale calls.
func measureCalls(budget time.Duration, fn func()) callStats {
	fn() // first-use allocations stay outside the measurement
	batch := 1
	var batchTime time.Duration
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		batchTime = time.Since(start)
		if batchTime >= time.Millisecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	reps := max(1, int(budget/batchTime))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < batch; i++ {
			fn()
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(reps * batch)
	return callStats{
		ns:     float64(elapsed.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		calls:  reps * batch,
	}
}

// harness holds the in-process engine and the workload's inputs.
type harness struct {
	e    *env
	w    *workload
	rec  *recorder
	root int
	db   *graphsql.DB
	reqs []*request // read requests of the workload's own stream
	out  metrics
	err  error // first error of a measured call
}

// keep remembers the first error a measured call returned; the calls
// run thousands of times and cannot stop at one.
func (h *harness) keep(err error) {
	if err != nil && h.err == nil {
		h.err = err
	}
}

// call measures one public call under a recorder span.
func (h *harness) call(name string, fn func()) callStats {
	id := h.rec.begin(h.root, 0, name)
	cs := measureCalls(callBudget, fn)
	h.rec.end(id, cs.calls)
	return cs
}

func toValues(args []any) []types.Value {
	out := make([]types.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int64:
			out[i] = types.NewInt(v)
		case float64:
			out[i] = types.NewFloat(v)
		}
	}
	return out
}

// runHarness produces every call metric of one workload. Metrics of
// layers the workload does not exercise stay 0.
func runHarness(e *env, w *workload, rec *recorder) (metrics, error) {
	// The timed windows ran the load generator on one thread; the
	// harness measures parallel builds and solves and needs them all.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	h := &harness{e: e, w: w, rec: rec, out: metrics{}}
	h.root = rec.begin(-1, 0, "harness "+w.name)
	defer func() { rec.end(h.root, 0) }()

	h.db = graphsql.Open(graphsql.WithParallelism(0))
	cat := h.db.Engine().Catalog()
	if err := e.ds.Load(cat); err != nil {
		return nil, err
	}
	if w.pairs {
		pairs, err := cat.CreateTable("pairs", storage.Schema{
			{Name: "seq", Kind: types.KindInt},
			{Name: "src", Kind: types.KindInt},
			{Name: "dst", Kind: types.KindInt},
		})
		if err != nil {
			return nil, err
		}
		for i := range e.pairSrc {
			pairs.Cols[0].AppendInt(int64(i))
			pairs.Cols[1].AppendInt(e.pairSrc[i])
			pairs.Cols[2].AppendInt(e.pairDst[i])
		}
	}
	if w.hubs {
		hubs, err := cat.CreateTable("hubs", storage.Schema{
			{Name: "id", Kind: types.KindInt},
			{Name: "firstName", Kind: types.KindString},
			{Name: "lastName", Kind: types.KindString},
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < hubCount(e.ds); i++ {
			hubs.Cols[0].AppendInt(e.ds.PersonIDs[i])
			hubs.Cols[1].AppendString(e.ds.FirstNames[i])
			hubs.Cols[2].AppendString(e.ds.LastNames[i])
		}
	}
	if w.indexed {
		if err := h.db.BuildGraphIndex("friends", "src", "dst"); err != nil {
			return nil, err
		}
	}
	// A client id no timed pass uses: the same kind of inputs, but not
	// the requests the server has just been sent.
	g := newGenerator(e, w, 99)
	for len(h.reqs) < harnessInputs {
		if rq := g.generate(); rq.op == opRead {
			h.reqs = append(h.reqs, rq)
		}
	}

	h.frontEnd()
	h.execute()
	h.serverParts()
	h.graphParts()
	return h.out, h.err
}

// frontEnd measures lexer, parser, fingerprint and Engine.Prepare on the
// workload's statement text, cycling through its literal variants.
func (h *harness) frontEnd() {
	i := 0
	next := func() *request { i++; return h.reqs[i%len(h.reqs)] }
	keep := h.keep

	cs := h.call("lexer.Tokenize", func() { t, e := lexer.Tokenize(next().sql); sink = t; keep(e) })
	h.out.set("lexer.tokenize_ns_per_stmt", cs.ns)
	h.out.set("lexer.tokenize_allocs_per_stmt", cs.allocs)

	parse := h.call("parser.Parse", func() { s, e := parser.Parse(next().sql); sink = s; keep(e) })
	h.out.set("parser.parse_ns_per_stmt", parse.ns)
	h.out.set("parser.parse_allocs_per_stmt", parse.allocs)
	h.out.set("parser.parse_bytes_per_stmt", parse.bytes)

	cs = h.call("fingerprint.Normalize", func() { sink = fingerprint.Normalize(next().sql) })
	h.out.set("fingerprint.normalize_ns_per_stmt", cs.ns)
	h.out.set("fingerprint.normalize_allocs_per_stmt", cs.allocs)

	eng := h.db.Engine()
	prep := h.call("engine.Prepare", func() {
		sql, params := prepared(next())
		p, e := eng.Prepare(sql, params...)
		sink = p
		keep(e)
	})
	h.out.set("engine.prepare_ns_per_stmt", prep.ns)
	h.out.set("engine.prepare_allocs_per_stmt", prep.allocs)
	h.out.set("engine.bind_plan_ns_per_stmt", max(0, prep.ns-parse.ns))
}

// prepared returns what the server hands Engine.Prepare for a request:
// the fingerprint-normalized text with the literals merged into the
// arguments.
func prepared(rq *request) (string, []types.Value) {
	params := toValues(rq.args)
	if norm := fingerprint.Normalize(rq.sql); norm.Changed() {
		if merged, ok := norm.MergeValues(params); ok {
			return norm.SQL, merged
		}
	}
	return rq.sql, params
}

// execute measures plan execution through the cursor seam and the wire
// encoding of the workload's own results.
func (h *harness) execute() {
	eng := h.db.Engine()
	ctx := context.Background()
	opts := engine.DefaultExecOptions()
	type prepReq struct {
		p      *engine.Prepared
		params []types.Value
	}
	plans := make([]prepReq, len(h.reqs))
	for i, rq := range h.reqs {
		sql, params := prepared(rq)
		p, err := eng.Prepare(sql, params...)
		if err != nil {
			h.keep(fmt.Errorf("harness prepare: %w", err))
			return
		}
		plans[i] = prepReq{p, params}
	}
	var firstBatch time.Duration
	var rows, runs int
	i := 0
	cs := h.call("engine.ExecPreparedCursor+drain", func() {
		pr := plans[i%len(plans)]
		i++
		start := time.Now()
		cur, err := eng.ExecPreparedCursor(ctx, pr.p, &opts, pr.params...)
		if err != nil {
			h.keep(err)
			return
		}
		defer cur.Close()
		for first := true; ; first = false {
			chunk, err := cur.Next(wire.DefaultBatchRows)
			if first {
				firstBatch += time.Since(start)
				runs++
			}
			if err != nil || chunk == nil {
				h.keep(err)
				return
			}
			rows += chunk.NumRows()
		}
	})
	if h.err != nil {
		return
	}
	h.out.set("engine.exec_us_per_op", cs.ns/1e3)
	h.out.set("engine.exec_allocs_per_op", cs.allocs)
	h.out.set("engine.exec_kb_per_op", cs.bytes/1024)
	h.out.set("exec.first_batch_us", us(firstBatch)/float64(runs))
	h.out.set("exec.rows_per_s", float64(rows)/float64(runs)/(cs.ns/1e9))

	res, err := h.db.Query(h.reqs[0].sql, h.reqs[0].args...)
	if err != nil {
		h.keep(fmt.Errorf("harness query: %w", err))
		return
	}
	perRow := float64(max(1, len(res.Rows)))
	var encoded int
	cs = h.call("wire.FromResult+Encode", func() {
		data, err := wire.FromResult(res).Encode()
		encoded = len(data)
		h.keep(err)
	})
	h.out.set("wire.encode_ns_per_row", cs.ns/perRow)
	h.out.set("wire.encode_allocs_per_row", cs.allocs/perRow)
	h.out.set("wire.bytes_per_row", float64(encoded)/perRow)
	cs = h.call("wire.StreamWriter", func() {
		sw := wire.NewStreamWriter(io.Discard)
		h.keep(sw.Header(res.Columns))
		for lo := 0; lo < len(res.Rows); lo += wire.DefaultBatchRows {
			h.keep(sw.Batch(res.Rows[lo:min(lo+wire.DefaultBatchRows, len(res.Rows))]))
		}
		h.keep(sw.Trailer(nil))
	})
	h.out.set("wire.stream_ns_per_row", cs.ns/perRow)
}

// serverParts measures the server's own building blocks uncontended:
// the result cache, admission and the trace recorder every query pays.
func (h *harness) serverParts() {
	res := &graphsql.Result{Columns: []string{"cost"}, Rows: [][]any{{int64(3)}}}
	rc := server.NewResultCache(512, 64<<20)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s|1|1|%s|%d", h.w.graph, h.w.sql, i)
		rc.Put(keys[i], h.w.graph, res)
	}
	i := 0
	cs := h.call("server.ResultCache.Get", func() { r, _ := rc.Get(keys[i%len(keys)]); sink = r; i++ })
	h.out.set("server.cache_get_ns", cs.ns)
	cs = h.call("server.ResultCache.Put", func() { rc.Put(keys[i%len(keys)], h.w.graph, res); i++ })
	h.out.set("server.cache_put_ns", cs.ns)

	adm := server.NewAdmission(runtime.GOMAXPROCS(0), 0, runtime.GOMAXPROCS(0), 0)
	ctx := context.Background()
	cs = h.call("server.Admission.Acquire+Release", func() {
		if g, err := adm.Acquire(ctx, 1); err == nil {
			g.Release()
		}
	})
	h.out.set("server.admission_acquire_ns", cs.ns)

	const spansPerTrace = 8
	cs = h.call("trace.Begin+End", func() {
		tr := trace.New()
		for s := 0; s < spansPerTrace; s++ {
			tr.End(tr.Begin(trace.NoSpan, "stage"))
		}
		sink = tr
	})
	h.out.set("trace.record_ns_per_span", cs.ns/spansPerTrace)
}

// graphParts measures graph construction and the solvers on the friends
// table, for the layers the workload exercises.
func (h *harness) graphParts() {
	w := h.w
	if w.layers == 0 || h.err != nil {
		return
	}
	ctx := context.Background()
	nproc := runtime.GOMAXPROCS(0)
	friends, _ := h.db.Engine().Catalog().Table("friends")
	chunk := friends.Chunk()
	keep := h.keep

	pg, err := core.BuildGraphCtx(ctx, chunk, 0, 1, 0)
	if err != nil {
		keep(err)
		return
	}
	if w.layers&layerBuild != 0 {
		cs := h.call("core.BuildGraphCtx", func() { g, e := core.BuildGraphCtx(ctx, chunk, 0, 1, 0); sink = g; keep(e) })
		h.out.set("core.build_graph_ms", cs.ns/1e6)
		h.out.set("core.build_graph_allocs", cs.allocs)
		h.out.set("core.build_graph_mb", cs.bytes/(1<<20))

		m := chunk.NumRows()
		srcIDs, dstIDs := make([]graph.VertexID, m), make([]graph.VertexID, m)
		keys := [][]int64{chunk.Cols[0].Ints, chunk.Cols[1].Ints}
		ids := [][]graph.VertexID{srcIDs, dstIDs}
		cs = h.call("graph.Dict.EncodeColumnsIntCtx", func() {
			keep(graph.NewIntDict(m).EncodeColumnsIntCtx(ctx, keys, ids, 0))
		})
		h.out.set("graph.encode_ms", cs.ns/1e6)
		n := pg.Dict.Len()
		cs = h.call("graph.BuildCSRParallelCtx", func() { g, e := graph.BuildCSRParallelCtx(ctx, n, srcIDs, dstIDs, 0); sink = g; keep(e) })
		h.out.set("graph.csr_build_ms", cs.ns/1e6)
		h.out.set("graph.csr_bytes", float64(8*len(pg.CSR.Offsets)+4*len(pg.CSR.Targets)+4*len(pg.CSR.Perm)))
	}
	if w.layers&layerIndex != 0 {
		cs := h.call("core.NewDynamicGraphP", func() { g, e := core.NewDynamicGraphP(chunk, 0, 1, 0); sink = g; keep(e) })
		h.out.set("core.index_build_ms", cs.ns/1e6)
	}

	// Solver inputs: the workload's own pairs, dictionary-encoded.
	var srcs, dsts []graph.VertexID
	seen := map[[2]int64]bool{}
	addPair := func(s, d int64) {
		// mixed_rw repeats its hot pairs; each is one solver input. A
		// person without friendships is no vertex; the engine filters
		// such pairs out before the solver sees them.
		vs, vd := pg.Dict.LookupInt(s), pg.Dict.LookupInt(d)
		if !seen[[2]int64{s, d}] && vs != graph.NoVertex && vd != graph.NoVertex {
			seen[[2]int64{s, d}] = true
			srcs, dsts = append(srcs, vs), append(dsts, vd)
		}
	}
	for _, rq := range h.reqs {
		if w.layers&layerBatch != 0 {
			for p := rq.a; p < rq.b; p++ {
				addPair(h.e.pairSrc[p], h.e.pairDst[p])
			}
		} else {
			addPair(rq.a, rq.b)
		}
	}
	unit := []graph.Spec{{Unit: true, UnitI: 1}}
	// solve returns a call that solves the next `size` pairs.
	solve := func(s *graph.Solver, spec []graph.Spec, size int) func() {
		at := 0
		return func() {
			if at+size > len(srcs) {
				at = 0
			}
			sol, e := s.Solve(srcs[at:at+size], dsts[at:at+size], spec)
			sink = sol
			keep(e)
			at += size
		}
	}
	solver := func(p int) *graph.Solver {
		s := graph.NewSolver(pg.CSR)
		s.Parallelism = p
		return s
	}
	if w.layers&layerBFS != 0 {
		w1 := h.call("graph.Solver.Solve bfs w1", solve(solver(1), unit, 1))
		h.out.set("graph.bfs_us_per_pair.w1", w1.ns/1e3)
		h.out.set("graph.solve_allocs_per_pair", w1.allocs)
		wn := h.call("graph.Solver.Solve bfs wN", solve(solver(nproc), unit, 1))
		h.out.set("graph.bfs_us_per_pair.wN", wn.ns/1e3)
	}
	if w.layers&(layerBFS|layerBatch) != 0 && len(srcs) > 8 {
		// Fixed cost and per-pair slope of one Solve call, least squares
		// over three batch sizes (mixed_rw's 8 hot pairs cannot span them).
		sizes := []int{1, 8, min(batchPairs, len(srcs))}
		var xs, ys []float64
		for _, b := range sizes {
			cs := h.call(fmt.Sprintf("graph.Solver.Solve batch %d", b), solve(solver(nproc), unit, b))
			xs, ys = append(xs, float64(b)), append(ys, cs.ns/1e3)
			if w.layers&layerBatch != 0 && b == sizes[len(sizes)-1] {
				h.out.set("graph.solve_allocs_per_pair", cs.allocs/float64(b))
			}
		}
		// On a graph so small that a solve costs microseconds, noise can
		// push the fitted intercept below zero; a cost cannot be.
		fixed, slope := leastSquares(xs, ys)
		h.out.set("graph.solve_fixed_us", max(0, fixed))
		h.out.set("graph.solve_us_per_pair", slope)
	}
	if w.layers&layerDijkstra != 0 {
		weights := pg.Edges.Cols[4].Ints
		radix := h.call("graph.Solver.Solve dijkstra radix", solve(solver(nproc), []graph.Spec{{WeightsI: weights}}, 1))
		h.out.set("graph.dijkstra_radix_us_per_pair", radix.ns/1e3)
		heap := h.call("graph.Solver.Solve dijkstra heap", solve(solver(nproc), []graph.Spec{{WeightsI: weights, ForceBinaryHeap: true}}, 1))
		h.out.set("graph.dijkstra_heap_us_per_pair", heap.ns/1e3)
		path := h.call("graph.Solver.Solve dijkstra radix+path", solve(solver(nproc), []graph.Spec{{WeightsI: weights, NeedPath: true}}, 1))
		h.out.set("graph.path_us_per_pair", max(0, path.ns-radix.ns)/1e3)
		h.out.set("graph.solve_allocs_per_pair", path.allocs)
	}
	if w.layers&layerRefresh != 0 {
		dg, err := core.NewDynamicGraphP(chunk, 0, 1, 0)
		if err != nil {
			keep(err)
			return
		}
		// One appended edge per refresh, far below the rebuild threshold.
		const refreshes = 64
		id := h.rec.begin(h.root, 0, "core.DynamicGraph.RefreshCtx")
		var total time.Duration
		for i := 0; i < refreshes; i++ {
			friends.Cols[0].AppendInt(h.e.pairSrc[i])
			friends.Cols[1].AppendInt(h.e.pairDst[i])
			friends.Cols[2].AppendInt(15706)
			friends.Cols[3].AppendFloat(1.0)
			friends.Cols[4].AppendInt(1)
			start := time.Now()
			_, e := dg.RefreshCtx(ctx, friends.Chunk())
			total += time.Since(start)
			keep(e)
		}
		h.rec.end(id, refreshes)
		h.out.set("core.refresh_us", us(total)/refreshes)
	}
}

// leastSquares fits y = a + b*x.
func leastSquares(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	b = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	return (sy - b*sx) / n, b
}
